package power

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/response"
	"repro/internal/samples"
	"repro/internal/scan"
	"repro/internal/scomp"
)

func vec(s string) logic.Vector {
	v, err := logic.ParseVector(s)
	if err != nil {
		panic(err)
	}
	return v
}

func TestWTMHandCases(t *testing.T) {
	cases := []struct {
		v    string
		want int
	}{
		{"0000", 0},
		{"1111", 0},
		{"1000", 3}, // transition at k=0 travels L-1-0 = 3 cells
		{"0001", 1}, // transition at k=2 travels 1 cell
		{"1010", 3 + 2 + 1},
		{"1x01", 0 + 0 + 1}, // X kills the first two comparisons
		{"", 0},
		{"1", 0},
	}
	for _, tc := range cases {
		if got := WTM(vec(tc.v)); got != tc.want {
			t.Errorf("WTM(%s) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestWTMOutWeights(t *testing.T) {
	// Shifting out, the transition between k and k+1 travels k+1 cells.
	if got := wtmOut(vec("1000")); got != 1 {
		t.Errorf("wtmOut(1000) = %d, want 1", got)
	}
	if got := wtmOut(vec("0001")); got != 3 {
		t.Errorf("wtmOut(0001) = %d, want 3", got)
	}
}

func TestAnalyzeS27(t *testing.T) {
	c := samples.S27()
	ts := scan.NewSet(
		scan.Test{SI: vec("101"), Seq: logic.Sequence{vec("1010"), vec("0101")}},
		scan.Test{SI: vec("000"), Seq: logic.Sequence{vec("1111")}},
	)
	rep := Analyze(c, nil, ts)
	// SI "101" has transitions at k=0 (travel 2) and k=1 (travel 1) = 3;
	// SI "000" has none.
	if rep.ShiftInWTM != 3 {
		t.Errorf("ShiftInWTM = %d, want 3", rep.ShiftInWTM)
	}
	checkShiftOut(t, c, nil, ts, rep)
	if rep.CaptureToggles <= 0 {
		t.Error("functional cycles must toggle something")
	}
	if rep.PeakCaptureToggles <= 0 || rep.PeakCaptureToggles > rep.CaptureToggles {
		t.Errorf("peak %d outside (0, %d]", rep.PeakCaptureToggles, rep.CaptureToggles)
	}
	if rep.Cycles != ts.Cycles(3) {
		t.Error("cycles mismatch")
	}
	if rep.Total() != rep.ShiftInWTM+rep.ShiftOutWTM+rep.CaptureToggles {
		t.Error("Total inconsistent")
	}
}

// checkShiftOut checks the shift-out metric, which Analyze reads off its
// event-driven capture run, against the responses the kernel computes.
func checkShiftOut(t *testing.T, c *circuit.Circuit, ch *scan.Chain, ts *scan.Set, rep Report) {
	t.Helper()
	want := 0
	for _, r := range response.ForSet(c, ch, ts) {
		want += wtmOut(r.ScanOut)
	}
	if rep.ShiftOutWTM != want {
		t.Errorf("ShiftOutWTM = %d, want %d from the expected responses", rep.ShiftOutWTM, want)
	}
}

func TestAnalyzeTracksCompactionTradeoff(t *testing.T) {
	// Compaction removes scan operations (shift power down or equal) and
	// concatenates functional runs. Verify the report reflects the sets'
	// structure: fewer tests => fewer SI shifts counted.
	c := gen.MustGenerate(gen.Params{Name: "p", Seed: 44, PIs: 5, POs: 4, FFs: 12, Gates: 120})
	faults := fault.Collapse(c)
	res, err := atpg.Generate(c, faults, atpg.Options{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	s := fsim.New(c, faults)
	initial := scomp.FromCombTests(res.Tests)
	compacted, _ := scomp.Compact(s, initial, scomp.Options{})
	ri := Analyze(c, nil, initial)
	rc := Analyze(c, nil, compacted)
	checkShiftOut(t, c, nil, initial, ri)
	checkShiftOut(t, c, nil, compacted, rc)
	if rc.Cycles > ri.Cycles {
		t.Error("compacted set must not cost more cycles")
	}
	t.Logf("initial: %d tests, shift %d+%d, capture %d; compacted: %d tests, shift %d+%d, capture %d",
		initial.NumTests(), ri.ShiftInWTM, ri.ShiftOutWTM, ri.CaptureToggles,
		compacted.NumTests(), rc.ShiftInWTM, rc.ShiftOutWTM, rc.CaptureToggles)
}

func TestAnalyzePartialChain(t *testing.T) {
	c := samples.ShiftReg(4)
	ch, err := scan.NewChain(4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := scan.NewSet(scan.Test{SI: vec("10"), Seq: logic.Sequence{vec("1")}})
	rep := Analyze(c, ch, ts)
	// SI "10": one transition at k=0 traveling 1 cell (chain length 2).
	if rep.ShiftInWTM != 1 {
		t.Errorf("partial ShiftInWTM = %d, want 1", rep.ShiftInWTM)
	}
	checkShiftOut(t, c, ch, ts, rep)
	if rep.Cycles != ts.Cycles(2) {
		t.Error("partial-scan cycles must use the chain length")
	}
}

func TestAnalyzeEmptySet(t *testing.T) {
	rep := Analyze(samples.S27(), nil, scan.NewSet())
	if rep.Total() != 0 || rep.Cycles != 0 {
		t.Errorf("empty set report = %+v", rep)
	}
}
