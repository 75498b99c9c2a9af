package dyncomp

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/samples"
	"repro/internal/scan"
)

func setup(tb testing.TB, seed int64) (*fsim.Simulator, []atpg.CombTest, *fault.Set) {
	tb.Helper()
	c := gen.MustGenerate(gen.Params{Name: "t", Seed: seed, PIs: 5, POs: 4, FFs: 12, Gates: 130})
	faults := fault.Collapse(c)
	res, err := atpg.Generate(c, faults, atpg.Options{Seed: seed})
	if err != nil {
		tb.Fatalf("atpg: %v", err)
	}
	return fsim.New(c, faults), res.Tests, res.Detected
}

func coverage(s *fsim.Simulator, ts *scan.Set) *fault.Set {
	got := fault.NewSet(s.NumFaults())
	for _, t := range ts.Tests {
		got.UnionWith(s.DetectTest(t.SI, t.Seq, nil))
	}
	return got
}

func TestCompactCoversEverything(t *testing.T) {
	s, C, want := setup(t, 31)
	out, st := Compact(s, C, Options{})
	if !coverage(s, out).ContainsAll(want) {
		t.Errorf("dynamic set does not cover C's faults")
	}
	if st.Tests != out.NumTests() {
		t.Errorf("stats tests=%d, set has %d", st.Tests, out.NumTests())
	}
}

func TestCompactBeatsOneScanPerTest(t *testing.T) {
	// The whole point of dynamic compaction: fewer scan operations than
	// the one-test-per-comb-vector baseline.
	s, C, _ := setup(t, 32)
	nsv := s.Circuit().NumFFs()
	baseline := scan.NewSet()
	for _, ct := range C {
		baseline.Tests = append(baseline.Tests, ct.ScanTest())
	}
	out, _ := Compact(s, C, Options{})
	if out.NumTests() > baseline.NumTests() {
		t.Errorf("dynamic produced more tests (%d) than baseline (%d)",
			out.NumTests(), baseline.NumTests())
	}
	if out.Cycles(nsv) > baseline.Cycles(nsv) {
		t.Errorf("dynamic cycles %d worse than baseline %d",
			out.Cycles(nsv), baseline.Cycles(nsv))
	}
}

func TestCompactRespectsExtensionCap(t *testing.T) {
	s, C, _ := setup(t, 33)
	out, _ := Compact(s, C, Options{MaxExtension: 2})
	for _, tt := range out.Tests {
		if tt.Len() > 2 {
			t.Errorf("test length %d exceeds cap 2", tt.Len())
		}
	}

	// The default cap is N_SV, the chain's length, not the flip-flop
	// count: past it, a scan operation is cheaper than more vectors.
	// Capped at the flip-flop count instead, this set has a test of
	// length 5.
	s, _, _ = setup(t, 31)
	c := s.Circuit()
	ch, err := scan.NewChain(c.NumFFs(), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := atpg.Generate(c, s.Faults(), atpg.Options{Seed: 31, Chain: ch})
	if err != nil {
		t.Fatal(err)
	}
	ps := fsim.NewChain(c, s.Faults(), ch)
	out, _ = Compact(ps, res.Tests, Options{})
	for i, tt := range out.Tests {
		if tt.Len() > ps.Nsv() {
			t.Errorf("partial scan: test %d has length %d, past N_SV %d", i, tt.Len(), ps.Nsv())
		}
	}
}

func TestCompactEmptyInput(t *testing.T) {
	c := samples.S27()
	s := fsim.New(c, fault.Collapse(c))
	out, st := Compact(s, nil, Options{})
	if out.NumTests() != 0 || st.Tests != 0 {
		t.Error("empty input should produce empty output")
	}
}

func TestCompactS27(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	res, err := atpg.Generate(c, faults, atpg.Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	s := fsim.New(c, faults)
	out, _ := Compact(s, res.Tests, Options{})
	if !coverage(s, out).ContainsAll(res.Detected) {
		t.Error("coverage lost on s27")
	}
	// Every test has at least one vector.
	for i, tt := range out.Tests {
		if tt.Len() < 1 {
			t.Errorf("test %d has empty sequence", i)
		}
		if len(tt.SI) != c.NumFFs() {
			t.Errorf("test %d scan-in width %d", i, len(tt.SI))
		}
	}
}

func TestCompactDeterministic(t *testing.T) {
	s, C, _ := setup(t, 35)
	a, _ := Compact(s, C, Options{})
	b, _ := Compact(s, C, Options{})
	if a.NumTests() != b.NumTests() || a.TotalVectors() != b.TotalVectors() {
		t.Fatal("nondeterministic result")
	}
	for i := range a.Tests {
		if !a.Tests[i].SI.Equal(b.Tests[i].SI) {
			t.Fatal("scan-in vectors differ")
		}
	}
}
