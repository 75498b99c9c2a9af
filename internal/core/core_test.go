package core

import (
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/samples"
	"repro/internal/seqgen"
)

type fixture struct {
	s      *fsim.Simulator
	C      []atpg.CombTest
	comb   *atpg.Result
	t0     *seqgen.Result
	nsv    int
	faults int
}

func newFixture(tb testing.TB, seed int64) *fixture {
	tb.Helper()
	c := gen.MustGenerate(gen.Params{Name: "fx", Seed: seed, PIs: 5, POs: 4, FFs: 12, Gates: 140})
	faults := fault.Collapse(c)
	comb, err := atpg.Generate(c, faults, atpg.Options{Seed: seed})
	if err != nil {
		tb.Fatalf("atpg: %v", err)
	}
	t0 := seqgen.Generate(c, faults, seqgen.Options{Seed: seed, MaxLen: 150})
	return &fixture{
		s:      fsim.New(c, faults),
		C:      comb.Tests,
		comb:   comb,
		t0:     t0,
		nsv:    c.NumFFs(),
		faults: len(faults),
	}
}

func TestRunInvariantChain(t *testing.T) {
	fx := newFixture(t, 101)
	res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The paper's containment chain: F_0 ⊆ F_seq ⊆ initial ⊆ final coverage.
	if !res.SeqDetected.ContainsAll(res.T0Detected) {
		t.Error("F_seq must contain F_0")
	}
	if !res.InitialDetected.ContainsAll(res.SeqDetected) {
		t.Error("initial coverage must contain F_seq")
	}
	if !res.FinalDetected.ContainsAll(res.InitialDetected) {
		t.Error("Phase 4 must not lose coverage")
	}
	// Phase 3 must cover everything C can cover.
	if !res.InitialDetected.ContainsAll(fx.comb.Detected) {
		t.Error("initial set must cover every C-detectable fault")
	}
	// τ_seq is a real test.
	if res.TauSeq.Len() < 1 || res.TauSeq.Len() > res.T0Len {
		t.Errorf("tau_seq length %d outside (0, %d]", res.TauSeq.Len(), res.T0Len)
	}
	if len(res.TauSeq.SI) != fx.nsv {
		t.Errorf("scan-in width %d != %d", len(res.TauSeq.SI), fx.nsv)
	}
	// Compaction cannot increase test time.
	if res.Final.Cycles(fx.nsv) > res.Initial.Cycles(fx.nsv) {
		t.Errorf("cycles grew: %d -> %d", res.Initial.Cycles(fx.nsv), res.Final.Cycles(fx.nsv))
	}
	// The claimed detected sets match a replay of the emitted test sets.
	replay := fault.NewSet(fx.faults)
	for _, tt := range res.Initial.Tests {
		replay.UnionWith(fx.s.DetectTest(tt.SI, tt.Seq, nil))
	}
	if !replay.Equal(res.InitialDetected) {
		t.Errorf("initial replay %d != claimed %d", replay.Count(), res.InitialDetected.Count())
	}
}

// TestCheckDetectsCorruption corrupts copies of a clean result in ways
// the end-of-run invariant check must name.
func TestCheckDetectsCorruption(t *testing.T) {
	fx := newFixture(t, 108)
	res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.check(); err != nil {
		t.Fatalf("clean result fails its check: %v", err)
	}
	if res.Trace[0].F0.Count() == 0 || res.Final.NumTests() < 2 {
		t.Fatal("fixture too small to corrupt")
	}
	cases := []struct {
		name    string
		corrupt func(r *Result)
		want    string
	}{
		{"F_SI loses F_0", func(r *Result) {
			r.Trace = append([]IterationTrace(nil), r.Trace...)
			r.Trace[0].FSI = fault.NewSet(fx.faults)
		}, "iteration 0: F_0 ⊄ F_SI"},
		{"Phase 4 loses coverage", func(r *Result) {
			r.FinalDetected = fault.NewSet(fx.faults)
		}, "F_init ⊄ F_final"},
		{"Phase 4 drops a test", func(r *Result) {
			r.Final = r.Final.Clone()
			r.Final.Tests = r.Final.Tests[1:]
		}, "Phase 4 made"},
	}
	for _, tc := range cases {
		broken := *res
		tc.corrupt(&broken)
		if err := broken.check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check() = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestRunSeqDetectsMostFaults(t *testing.T) {
	// The headline property: τ_seq alone detects a large share of what
	// the whole flow detects, and more than T_0 alone.
	fx := newFixture(t, 102)
	res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SeqDetected.Count() < res.T0Detected.Count() {
		t.Error("scan-in/scan-out selection must not lose T_0 detections")
	}
	frac := float64(res.SeqDetected.Count()) / float64(res.FinalDetected.Count())
	if frac < 0.6 {
		t.Errorf("tau_seq detects only %.2f of final coverage", frac)
	}
}

func TestRunWithRandomT0(t *testing.T) {
	fx := newFixture(t, 103)
	t0 := seqgen.Random(fx.s.Circuit(), 200, 9)
	res, err := Run(fx.s, fx.C, t0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.InitialDetected.ContainsAll(fx.comb.Detected) {
		t.Error("random-T0 run must still cover all C-detectable faults")
	}
	// Random sequences detect less; Phase 3 usually adds more tests.
	if res.T0Len != 200 {
		t.Errorf("T0 length = %d, want 200", res.T0Len)
	}
}

func TestRunTraceAndTermination(t *testing.T) {
	fx := newFixture(t, 104)
	res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no iteration trace")
	}
	for i, tr := range res.Trace {
		if tr.DetectedSI < tr.DetectedT0 {
			t.Errorf("iter %d: |F_SI| < |F_0|", i)
		}
		if tr.DetectedSO < tr.DetectedSI {
			t.Errorf("iter %d: |F_SO| < |F_SI|", i)
		}
		if tr.LenOut > tr.LenIn {
			t.Errorf("iter %d: omission grew the sequence", i)
		}
		if tr.ScanOutTime < 0 || tr.ScanOutTime >= tr.LenIn {
			t.Errorf("iter %d: scan-out time %d outside [0,%d)", i, tr.ScanOutTime, tr.LenIn)
		}
		if tr.Reused && i != len(res.Trace)-1 {
			t.Error("a reused scan-in state must terminate the iteration")
		}
	}
}

func TestRunErrors(t *testing.T) {
	fx := newFixture(t, 106)
	if _, err := Run(fx.s, nil, fx.t0.Seq, Options{}); err == nil {
		t.Error("empty C must fail")
	}
	if _, err := Run(fx.s, fx.C, nil, Options{}); err == nil {
		t.Error("empty T0 must fail")
	}
}

func TestRunDeterministic(t *testing.T) {
	fx := newFixture(t, 107)
	a, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TauSeq.Len() != b.TauSeq.Len() || a.Added != b.Added ||
		a.Final.Cycles(fx.nsv) != b.Final.Cycles(fx.nsv) {
		t.Error("Run is not deterministic")
	}
}

func TestRunOnS27(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	comb, err := atpg.Generate(c, faults, atpg.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t0 := seqgen.Generate(c, faults, seqgen.Options{Seed: 1, MaxLen: 60})
	s := fsim.New(c, faults)
	res, err := Run(s, comb.Tests, t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FinalDetected.ContainsAll(comb.Detected) {
		t.Errorf("s27 final coverage %d misses C-detectable faults (%d)",
			res.FinalDetected.Count(), comb.Detected.Count())
	}
}
