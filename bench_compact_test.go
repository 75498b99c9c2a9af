package repro

import (
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/dyncomp"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/scomp"
	"repro/internal/vecomit"
)

// --- ISCAS-scale ledger population check ---

const xlCircuit = "s35932xl"

// TestRecordOverheadXL grades one random scan test of the ISCAS-scale
// circuit twice, with DetectTest and with RecordTest. The two must
// agree on the detected set, and populating the detection ledger (first
// PO-detect position + scan-out flag per fault) must stay a cheap
// by-product of grading: at most 25% over DetectTest. Gated behind
// BENCH_COMPACT_XL=1, since it simulates s35932xl and times the passes.
func TestRecordOverheadXL(t *testing.T) {
	if os.Getenv("BENCH_COMPACT_XL") == "" {
		t.Skip("set BENCH_COMPACT_XL=1 to check the ledger population overhead on " + xlCircuit)
	}
	c, ok := gen.RosterCircuit(xlCircuit)
	if !ok {
		t.Fatalf("unknown roster circuit %q", xlCircuit)
	}
	faults := fault.Collapse(c)
	s := fsim.New(c, faults)
	r := rand.New(rand.NewSource(7))
	si := make(logic.Vector, c.NumFFs())
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}
	seq := make(logic.Sequence, 48)
	for u := range seq {
		seq[u] = make(logic.Vector, c.NumPIs())
		for i := range seq[u] {
			seq[u][i] = logic.Value(r.Intn(2))
		}
	}
	// A first grading compiles the circuit and allocates the pooled
	// worker's engine and buffers, so neither timed pass pays for them.
	keep := s.DetectTest(si, seq, nil)

	start := time.Now()
	det := s.DetectTest(si, seq, nil)
	grade := time.Since(start).Seconds()
	start = time.Now()
	rec := s.RecordTest(si, seq, nil)
	record := time.Since(start).Seconds()
	overhead := record/grade - 1
	t.Logf("%s: %d faults, %d detected; detect %.2fs, record %.2fs, overhead %.1f%%",
		xlCircuit, s.NumFaults(), keep.Count(), grade, record, 100*overhead)
	if !rec.Detected().Equal(det) || !det.Equal(keep) {
		t.Error("RecordTest and DetectTest disagree on the detected set")
	}
	if overhead > 0.25 {
		t.Errorf("ledger population overhead %.1f%% above the 25%% by-product bound", 100*overhead)
	}
}

// --- Phase 2 omission benchmark ---

// ledgerOmissionFixture memoizes the omission benchmark inputs on a
// mid-size roster circuit so the benchmark (and the CI smoke run at
// -benchtime 1x) times only the omission loop.
type ledgerOmissionFixture struct {
	sim  *fsim.Simulator
	test scan.Test
	keep *fault.Set
}

var (
	omitOnce sync.Once
	omitFx   ledgerOmissionFixture
)

func omissionSetup(b *testing.B) *ledgerOmissionFixture {
	b.Helper()
	omitOnce.Do(func() {
		c, ok := gen.RosterCircuit("s1423")
		if !ok {
			panic("unknown roster circuit s1423")
		}
		faults := fault.Collapse(c)
		s := fsim.New(c, faults)
		r := rand.New(rand.NewSource(3))
		si := make(logic.Vector, c.NumFFs())
		for i := range si {
			si[i] = logic.Value(r.Intn(2))
		}
		seq := make(logic.Sequence, 40)
		for u := range seq {
			seq[u] = make(logic.Vector, c.NumPIs())
			for i := range seq[u] {
				seq[u][i] = logic.Value(r.Intn(2))
			}
		}
		keep := s.DetectTest(si, seq, nil)
		omitFx = ledgerOmissionFixture{sim: s, test: scan.Test{SI: si, Seq: seq}, keep: keep}
	})
	return &omitFx
}

// BenchmarkLedgerOmission times Phase 2 vector omission on one random
// scan test of a mid-size circuit. CI runs it once (-benchtime 1x) as a
// smoke check.
func BenchmarkLedgerOmission(b *testing.B) {
	fx := omissionSetup(b)
	b.ResetTimer()
	var removed int
	for i := 0; i < b.N; i++ {
		out, st := vecomit.CompactTest(fx.sim, fx.test, fx.keep, vecomit.Options{})
		if len(out.Seq) >= len(fx.test.Seq) && st.Removed > 0 {
			b.Fatal("omission reported removals without shortening the test")
		}
		removed = st.Removed
	}
	b.ReportMetric(float64(removed), "removed")
}

// --- Baseline engine benchmarks ---

// baselineCircuits are the circuits the [2,3] and [4] baselines are
// timed on: a mid-size ISCAS and a small ITC substitute.
var baselineCircuits = []string{"s1423", "b04"}

// combFixture is a roster circuit's simulator and its combinational
// test set C, generated with the circuit's roster seed as the pipeline
// does.
type combFixture struct {
	sim *fsim.Simulator
	C   []atpg.CombTest
}

var (
	combMu  sync.Mutex
	combFxs = map[string]*combFixture{}
)

// combSetup memoizes the fixture of the named roster circuit, so a
// benchmark times only its engine.
func combSetup(b *testing.B, name string) *combFixture {
	b.Helper()
	combMu.Lock()
	defer combMu.Unlock()
	if fx, ok := combFxs[name]; ok {
		return fx
	}
	e, ok := gen.FindEntry(name)
	if !ok {
		b.Fatalf("unknown roster circuit %q", name)
	}
	c := gen.MustGenerate(e.Params)
	faults := fault.Collapse(c)
	res, err := atpg.Generate(c, faults, atpg.Options{Seed: e.Params.Seed})
	if err != nil {
		b.Fatal(err)
	}
	fx := &combFixture{sim: fsim.New(c, faults), C: res.Tests}
	combFxs[name] = fx
	return fx
}

// BenchmarkDynamicCompaction times the [2,3] baseline (dyncomp) from C
// and reports its extension candidates. CI runs it once with -benchmem.
func BenchmarkDynamicCompaction(b *testing.B) {
	for _, name := range baselineCircuits {
		b.Run(name, func(b *testing.B) {
			fx := combSetup(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			var st dyncomp.Stats
			for i := 0; i < b.N; i++ {
				_, st = dyncomp.Compact(fx.sim, fx.C, dyncomp.Options{})
			}
			b.ReportMetric(float64(st.Candidates), "candidates")
		})
	}
}

// BenchmarkStaticCompaction times the [4] baseline (scomp) on C as
// length-1 scan tests and reports its combination attempts. CI runs it
// once with -benchmem.
func BenchmarkStaticCompaction(b *testing.B) {
	for _, name := range baselineCircuits {
		b.Run(name, func(b *testing.B) {
			fx := combSetup(b, name)
			ts := scomp.FromCombTests(fx.C)
			b.ReportAllocs()
			b.ResetTimer()
			var st scomp.Stats
			for i := 0; i < b.N; i++ {
				_, st = scomp.Compact(fx.sim, ts, scomp.Options{})
			}
			b.ReportMetric(float64(st.Attempts), "attempts")
		})
	}
}
