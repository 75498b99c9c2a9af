package scomp

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/samples"
	"repro/internal/scan"
)

// buildC generates a combinational test set for a circuit.
func buildC(tb testing.TB, seed int64) (*fsim.Simulator, *scan.Set, *fault.Set) {
	tb.Helper()
	c := samples.S27()
	faults := fault.Collapse(c)
	res, err := atpg.Generate(c, faults, atpg.Options{Seed: seed})
	if err != nil {
		tb.Fatalf("atpg: %v", err)
	}
	s := fsim.New(c, faults)
	initial := FromCombTests(res.Tests)
	return s, initial, res.Detected
}

func coverage(s *fsim.Simulator, ts *scan.Set) *fault.Set {
	got := fault.NewSet(s.NumFaults())
	for _, t := range ts.Tests {
		got.UnionWith(s.DetectTest(t.SI, t.Seq, nil))
	}
	return got
}

func TestCompactPreservesCoverage(t *testing.T) {
	s, initial, want := buildC(t, 1)
	out, st := Compact(s, initial, Options{})
	got := coverage(s, out)
	if !got.ContainsAll(want) {
		t.Errorf("coverage dropped: %d -> %d", want.Count(), got.Count())
	}
	if st.Combined != initial.NumTests()-out.NumTests() {
		t.Errorf("stats inconsistent: combined=%d, tests %d -> %d",
			st.Combined, initial.NumTests(), out.NumTests())
	}
}

func TestCompactReducesCycles(t *testing.T) {
	s, initial, _ := buildC(t, 2)
	nsv := s.Circuit().NumFFs()
	out, _ := Compact(s, initial, Options{})
	if out.Cycles(nsv) > initial.Cycles(nsv) {
		t.Errorf("cycles grew: %d -> %d", initial.Cycles(nsv), out.Cycles(nsv))
	}
	if out.NumTests() >= initial.NumTests() && initial.NumTests() > 2 {
		t.Logf("warning: no combinations accepted (%d tests)", out.NumTests())
	}
	// Total functional vectors never change: combining only concatenates.
	if out.TotalVectors() != initial.TotalVectors() {
		t.Errorf("total vectors changed: %d -> %d", initial.TotalVectors(), out.TotalVectors())
	}
}

func TestCompactLengthensSequences(t *testing.T) {
	// The defining behaviour in the paper's Table 4: after combining,
	// average PI-sequence length exceeds 1.
	s, initial, _ := buildC(t, 3)
	out, st := Compact(s, initial, Options{})
	if st.Combined > 0 && out.AtSpeed().Average <= 1.0 {
		t.Errorf("combined %d pairs but average length still %.2f",
			st.Combined, out.AtSpeed().Average)
	}
}

func TestCompactSmallSets(t *testing.T) {
	s, initial, _ := buildC(t, 4)
	empty := scan.NewSet()
	out, st := Compact(s, empty, Options{})
	if out.NumTests() != 0 || st.Combined != 0 {
		t.Error("empty set should pass through")
	}
	one := scan.NewSet(initial.Tests[0])
	out, st = Compact(s, one, Options{})
	if out.NumTests() != 1 || st.Combined != 0 {
		t.Error("singleton set should pass through")
	}
}

func TestCompactDoesNotMutateInput(t *testing.T) {
	s, initial, _ := buildC(t, 5)
	beforeTests := initial.NumTests()
	beforeVecs := initial.TotalVectors()
	Compact(s, initial, Options{})
	if initial.NumTests() != beforeTests || initial.TotalVectors() != beforeVecs {
		t.Error("Compact mutated its input set")
	}
}

func TestCompactOnGeneratedCircuit(t *testing.T) {
	c := gen.MustGenerate(gen.Params{Name: "t", Seed: 12, PIs: 5, POs: 4, FFs: 10, Gates: 120})
	faults := fault.Collapse(c)
	res, err := atpg.Generate(c, faults, atpg.Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	s := fsim.New(c, faults)
	initial := FromCombTests(res.Tests)
	out, st := Compact(s, initial, Options{})
	if !coverage(s, out).ContainsAll(res.Detected) {
		t.Error("coverage lost")
	}
	nsv := c.NumFFs()
	t.Logf("tests %d -> %d, cycles %d -> %d (attempts %d)",
		initial.NumTests(), out.NumTests(), initial.Cycles(nsv), out.Cycles(nsv), st.Attempts)
	if st.Combined == 0 && initial.NumTests() > 5 {
		t.Error("expected at least one combination on a generated circuit")
	}
}

func TestFromCombTests(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	res, err := atpg.Generate(c, faults, atpg.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := FromCombTests(res.Tests)
	if ts.NumTests() != len(res.Tests) {
		t.Fatal("test count mismatch")
	}
	for i, tt := range ts.Tests {
		if tt.Len() != 1 {
			t.Errorf("test %d length %d, want 1", i, tt.Len())
		}
	}
}
