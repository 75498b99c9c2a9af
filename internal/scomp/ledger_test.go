package scomp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/scan"
)

// ledgerFixture builds a pool of short random scan tests over a circuit
// large enough to give the combiner real work.
func ledgerFixture(tb testing.TB, seed int64, ntests int) (*gen.Params, *scan.Set) {
	tb.Helper()
	p := gen.Params{Name: "sl", Seed: 21, PIs: 4, POs: 4, FFs: 8, Gates: 100}
	c := gen.MustGenerate(p)
	r := rand.New(rand.NewSource(seed))
	ts := scan.NewSet()
	for k := 0; k < ntests; k++ {
		t := scan.Test{SI: make(logic.Vector, c.NumFFs())}
		for i := range t.SI {
			t.SI[i] = logic.Value(r.Intn(2))
		}
		for u := 0; u < 1+r.Intn(2); u++ {
			v := make(logic.Vector, c.NumPIs())
			for i := range v {
				v[i] = logic.Value(r.Intn(2))
			}
			t.Seq = append(t.Seq, v)
		}
		ts.Tests = append(ts.Tests, t)
	}
	return &p, ts
}

func setsIdentical(a, b *scan.Set) bool {
	if len(a.Tests) != len(b.Tests) {
		return false
	}
	for k := range a.Tests {
		if !a.Tests[k].SI.Equal(b.Tests[k].SI) || len(a.Tests[k].Seq) != len(b.Tests[k].Seq) {
			return false
		}
		for u := range a.Tests[k].Seq {
			if !a.Tests[k].Seq[u].Equal(b.Tests[k].Seq[u]) {
				return false
			}
		}
	}
	return true
}

// referenceCompact is the combining rule of [4] reduced to its
// definition, the reference for the ledger engine. Every live test
// carries a credit, the faults it is counted as detecting: initially
// its whole detected set. For each live ordered pair, in the engine's
// row-major order:
//
//   - risk = (cred_i ∪ cred_j) minus every other live test's credit;
//   - the combination is accepted iff it detects the whole risk set;
//   - the new credit is the combination's detections ∩ (cred_i ∪ cred_j).
//
// The engine, too, credits a combination only inside cred_i ∪ cred_j,
// so a whole-union re-grade would not be a like-for-like reference.
// A round ends after the last live pair of the scan, accepted or not.
func referenceCompact(s *fsim.Simulator, ts *scan.Set) (*scan.Set, Stats) {
	var st Stats
	n := len(ts.Tests)
	tests := make([]scan.Test, n)
	cred := make([]*fault.Set, n) // nil once the test is absorbed
	for i, t := range ts.Tests {
		tests[i] = t.Clone()
		cred[i] = s.DetectTest(t.SI, t.Seq, nil)
	}

	for {
		st.Rounds++
		changed := false
		// p walks the ordered pairs (p/n, p%n) in row-major order.
		for p := 0; p < n*n; p++ {
			i, j := p/n, p%n
			if i == j || cred[i] == nil || cred[j] == nil {
				continue
			}
			union := cred[i].Clone()
			union.UnionWith(cred[j])
			risk := union.Clone()
			for k, ck := range cred {
				if k != i && k != j && ck != nil {
					risk.SubtractWith(ck)
				}
			}
			combined := scan.Test{
				SI:  tests[i].SI.Clone(),
				Seq: append(tests[i].Seq.Clone(), tests[j].Seq.Clone()...),
			}
			st.Attempts++
			if !s.DetectTest(combined.SI, combined.Seq, risk).ContainsAll(risk) {
				continue
			}
			cred[i] = s.DetectTest(combined.SI, combined.Seq, union)
			cred[j] = nil
			tests[i] = combined
			st.Combined++
			changed = true
		}
		if !changed {
			break
		}
	}

	out := scan.NewSet()
	for i, t := range tests {
		if cred[i] != nil {
			out.Tests = append(out.Tests, t)
		}
	}
	return out, st
}

// TestLedgerEquivalence checks the ledger engine against
// referenceCompact at several worker counts: it must combine exactly
// the same pairs in the same order, producing an identical test set.
func TestLedgerEquivalence(t *testing.T) {
	totalShort := 0
	// Seed 66 accepts at the last live pair of a scan, which ends the
	// round.
	for _, seed := range []int64{5, 11, 15, 66} {
		p, ts := ledgerFixture(t, seed, 12)
		c := gen.MustGenerate(*p)
		faults := fault.Collapse(c)

		ref, refSt := referenceCompact(fsim.New(c, faults), ts)

		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("seed=%d workers=%d", seed, workers)
			s := fsim.New(c, faults).SetWorkers(workers)
			out, led, st := CompactWithLedger(s, ts, Options{})
			if !setsIdentical(out, ref) {
				t.Fatalf("%s: ledger set differs from the reference (%d vs %d tests)",
					name, out.NumTests(), ref.NumTests())
			}
			if st.Combined != refSt.Combined || st.Attempts != refSt.Attempts ||
				st.Rounds != refSt.Rounds {
				t.Fatalf("%s: trial stats differ: %+v vs %+v", name, st, refSt)
			}
			verifyLedger(t, name, c, faults, out, led)
			totalShort += st.ShortCircuits
		}
	}
	if totalShort == 0 {
		t.Fatal("ledger short-circuit never fired across the sweep")
	}
}

// verifyLedger checks the returned ledger against a fresh simulator:
// row-aligned with the output tests, exact first-PO times, correct
// scan-out-only flags, and per-test detections that cover each test's
// contribution to the union without over-crediting.
func verifyLedger(t *testing.T, name string, c *circuit.Circuit, faults []fault.Fault, out *scan.Set, led *fsim.Ledger) {
	t.Helper()
	if led.Len() != len(out.Tests) {
		t.Fatalf("%s: ledger has %d rows for %d tests", name, led.Len(), len(out.Tests))
	}
	s := fsim.New(c, faults)
	for k, tst := range out.Tests {
		row := led.Row(k)
		if row == nil {
			t.Fatalf("%s: test %d has no ledger row", name, k)
		}
		actual := s.DetectTest(tst.SI, tst.Seq, nil)
		if !actual.ContainsAll(row.Detected()) {
			t.Fatalf("%s: test %d ledger row over-credits detections", name, k)
		}
		prof := s.Profile(tst.SI, tst.Seq, row.Detected())
		last := len(tst.Seq) - 1
		var bad string
		row.Detected().ForEach(func(f int) {
			if bad != "" {
				return
			}
			if d := row.FirstPO(f); d >= 0 {
				if got := prof.Record().FirstPO(f); got != d {
					bad = fmt.Sprintf("fault %d: row first-PO %d, actual %d", f, d, got)
				}
			} else if !row.ScanOutOnly(f) {
				bad = fmt.Sprintf("fault %d: detected but neither PO nor scan-out-only", f)
			} else if prof.Record().FirstPO(f) >= 0 || !prof.ScanOutDetects(f, last) {
				bad = fmt.Sprintf("fault %d: scan-out-only flag wrong", f)
			}
		})
		if bad != "" {
			t.Fatalf("%s: test %d: %s", name, k, bad)
		}
	}
}

// TestLedgerInitialRecords checks that seeding the ledger with
// pre-computed records changes nothing: the seeded run must produce the
// same set and the same stats as the self-grading run.
func TestLedgerInitialRecords(t *testing.T) {
	p, ts := ledgerFixture(t, 9, 10)
	c := gen.MustGenerate(*p)
	faults := fault.Collapse(c)

	s := fsim.New(c, faults)
	ref, refLed, refSt := CompactWithLedger(s, ts, Options{})

	recs := make([]*fsim.Record, len(ts.Tests))
	for i, tst := range ts.Tests {
		if i%2 == 0 { // mix seeded and self-graded rows
			recs[i] = s.RecordTest(tst.SI, tst.Seq, nil)
		}
	}
	out, led, st := CompactWithLedger(s, ts, Options{InitialRecords: recs})
	if !setsIdentical(out, ref) {
		t.Fatal("seeded run produced a different set")
	}
	if st.Combined != refSt.Combined || st.Attempts != refSt.Attempts {
		t.Fatalf("seeded run stats differ: %+v vs %+v", st, refSt)
	}
	if led.Len() != refLed.Len() {
		t.Fatalf("seeded run ledger length differs: %d vs %d", led.Len(), refLed.Len())
	}
	for k := 0; k < led.Len(); k++ {
		if !led.Row(k).Detected().Equal(refLed.Row(k).Detected()) {
			t.Fatalf("seeded run ledger row %d differs", k)
		}
	}
}
