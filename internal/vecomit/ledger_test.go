// External test package: see oracle_test.go for the import-cycle note.
package vecomit_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/samples"
	"repro/internal/scan"
	"repro/internal/vecomit"
)

func seqsEqual(a, b logic.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if !a[u].Equal(b[u]) {
			return false
		}
	}
	return true
}

func randomTest(r *rand.Rand, nsv, npi, length int) scan.Test {
	tst := scan.Test{SI: make(logic.Vector, nsv)}
	for i := range tst.SI {
		tst.SI[i] = logic.Value(r.Intn(2))
	}
	for u := 0; u < length; u++ {
		v := make(logic.Vector, npi)
		for i := range v {
			v[i] = logic.Value(r.Intn(2))
		}
		tst.Seq = append(tst.Seq, v)
	}
	return tst
}

// naiveOmit is the reference omission loop. It sweeps like the engine
// (last vector first, at most maxPasses sweeps, a scan test keeps one
// vector, nothing to keep is a no-op), but every trial re-checks the
// whole keep set on the reference simulator. The engine's narrower
// risk set accepts the same removals, because a removal at p cannot
// disturb a PO detection before p.
func naiveOmit(orc *oracle.Sim, si logic.Vector, seq logic.Sequence, keep *fault.Set, scanOut bool, maxPasses int) logic.Sequence {
	cur := seq.Clone()
	if keep.Count() == 0 {
		return cur
	}
	for pass := 0; pass < maxPasses; pass++ {
		removed := false
		for p := len(cur) - 1; p >= 0; p-- {
			if len(cur) == 1 && scanOut {
				break
			}
			cand := append(cur[:p:p], cur[p+1:]...)
			if orc.Detect(cand, oracle.Options{Init: si, ScanOut: scanOut, Targets: keep}).ContainsAll(keep) {
				cur, removed = cand, true
			}
		}
		if !removed {
			break
		}
	}
	return cur
}

// TestLedgerEquivalence checks the ledger engine against naiveOmit at
// several worker counts, under full and partial scan: the compacted
// sequences must be identical. The 16-vector tests keep a checkpoint
// after every vector; the 66-vector test keeps one every second vector,
// so most of its trials resume from a checkpoint before the omitted
// position. The free-removal short-circuit must fire somewhere in the
// sweep, otherwise the ledger would be measuring nothing.
func TestLedgerEquivalence(t *testing.T) {
	c := gen.MustGenerate(gen.Params{Name: "vl", Seed: 41, PIs: 4, POs: 3, FFs: 10, Gates: 110})
	faults := fault.Collapse(c)

	half := make([]int, c.NumFFs()/2)
	for i := range half {
		half[i] = 2 * i
	}
	partial, err := scan.NewChain(c.NumFFs(), half)
	if err != nil {
		t.Fatal(err)
	}

	totalFree := 0
	for _, chain := range []*scan.Chain{nil, partial} {
		nsv := c.NumFFs()
		if chain != nil {
			nsv = len(chain.FFs)
		}
		orc := oracle.NewChain(c, faults, chain)
		for _, in := range []struct {
			seed   int64
			length int
		}{{3, 16}, {19, 16}, {7, 66}} {
			seed := in.seed
			r := rand.New(rand.NewSource(seed))
			tst := randomTest(r, nsv, c.NumPIs(), in.length)
			keep := fsim.NewChain(c, faults, chain).DetectTest(tst.SI, tst.Seq, nil)
			ref := naiveOmit(orc, tst.SI, tst.Seq, keep, true, 2)

			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("chain=%v seed=%d workers=%d", chain != nil, seed, workers)
				s := fsim.NewChain(c, faults, chain).SetWorkers(workers)
				got, st := vecomit.CompactTest(s, tst, keep, vecomit.Options{})
				if !seqsEqual(got.Seq, ref) {
					t.Fatalf("%s: engine sequence differs from the naive loop (%d vs %d vectors)",
						name, len(got.Seq), len(ref))
				}
				if st.Removed != len(tst.Seq)-len(ref) {
					t.Fatalf("%s: Removed = %d, want %d", name, st.Removed, len(tst.Seq)-len(ref))
				}
				totalFree += st.FreeRemovals
			}
		}
	}
	if totalFree == 0 {
		t.Fatal("free-removal short-circuit never fired across the sweep")
	}
}

// TestLedgerEquivalenceSequence repeats the check for the no-scan role
// (conditioning T_0): PO-only detection, no scan-in state.
func TestLedgerEquivalenceSequence(t *testing.T) {
	c := gen.MustGenerate(gen.Params{Name: "vls", Seed: 42, PIs: 3, POs: 3, FFs: 6, Gates: 80})
	faults := fault.Collapse(c)
	r := rand.New(rand.NewSource(23))
	tst := randomTest(r, 0, c.NumPIs(), 18)

	s := fsim.New(c, faults).SetWorkers(2)
	keep := s.Detect(tst.Seq, fsim.Options{})
	got, _ := vecomit.CompactSequence(s, tst.Seq, keep, vecomit.Options{})
	if ref := naiveOmit(oracle.New(c, faults), nil, tst.Seq, keep, false, 2); !seqsEqual(got, ref) {
		t.Fatalf("no-scan engine sequence differs from the naive loop (%d vs %d vectors)", len(got), len(ref))
	}
}

// FuzzOmissionDifferential checks the omission engine against naiveOmit
// on fuzzer-shaped circuits and tests, in both roles: the scan test
// (scan-out observed) and the no-scan sequence.
func FuzzOmissionDifferential(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for _, c := range []*circuit.Circuit{samples.S27(), samples.ShiftReg(3)} {
		data, err := oracle.EncodeFuzz(c, randomTest(r, c.NumFFs(), c.NumPIs(), 6))
		if err != nil {
			f.Fatalf("%s: corpus encode: %v", c.Name, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, tst, err := oracle.DecodeFuzz(data)
		if err != nil {
			t.Skip()
		}
		faults := fault.Collapse(c)
		s := fsim.New(c, faults)
		orc := oracle.New(c, faults)

		keep := s.DetectTest(tst.SI, tst.Seq, nil)
		got, st := vecomit.CompactTest(s, tst, keep, vecomit.Options{})
		ref := naiveOmit(orc, tst.SI, tst.Seq, keep, true, 2)
		if !seqsEqual(got.Seq, ref) {
			t.Fatalf("scan test: engine kept %d vectors, naive loop %d", len(got.Seq), len(ref))
		}
		if st.Removed != len(tst.Seq)-len(ref) {
			t.Fatalf("scan test: Removed = %d, want %d", st.Removed, len(tst.Seq)-len(ref))
		}

		keep = s.Detect(tst.Seq, fsim.Options{})
		gotSeq, _ := vecomit.CompactSequence(s, tst.Seq, keep, vecomit.Options{})
		if ref := naiveOmit(orc, nil, tst.Seq, keep, false, 2); !seqsEqual(gotSeq, ref) {
			t.Fatalf("no-scan: engine kept %d vectors, naive loop %d", len(gotSeq), len(ref))
		}
	})
}
