package workload

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/power"
	"repro/internal/scan"
	"repro/internal/tabfmt"
	"repro/internal/tfault"
)

// fastCfg keeps the pipeline quick for unit tests.
func fastCfg() Config {
	return Config{T0MaxLen: 80, RandomT0Len: 150}
}

// cachedRuns caches the small-roster pipeline shared by this package's
// tests (the pipeline is deterministic, so sharing is safe).
var cachedRuns []*CircuitRun

func smallRuns(tb testing.TB) []*CircuitRun {
	tb.Helper()
	if cachedRuns != nil {
		return cachedRuns
	}
	runs, err := RunAll([]string{"b01", "b02", "s298"}, fastCfg(), 2)
	if err != nil {
		tb.Fatalf("RunAll: %v", err)
	}
	cachedRuns = runs
	return runs
}

// setCoverage re-simulates a scan test set and returns its fault coverage.
func setCoverage(r *CircuitRun, ts *scan.Set) *fault.Set {
	s := fsim.New(r.Circuit, r.Faults)
	got := fault.NewSet(len(r.Faults))
	for _, t := range ts.Tests {
		got.UnionWith(s.DetectTest(t.SI, t.Seq, nil))
	}
	return got
}

func TestPipelineQualitativeClaims(t *testing.T) {
	for _, r := range smallRuns(t) {
		name := r.Entry.Params.Name
		nsv := r.Nsv()
		p := r.Proposed

		// Paper claim: the proposed final test set never costs more than
		// its initial set, and Phase 4 preserves coverage.
		if p.Final.Cycles(nsv) > p.Initial.Cycles(nsv) {
			t.Errorf("%s: phase 4 grew cycles", name)
		}
		if !p.FinalDetected.ContainsAll(p.InitialDetected) {
			t.Errorf("%s: phase 4 lost coverage", name)
		}
		// Coverage parity with [4]: both flows detect every C-detectable
		// fault.
		if !p.FinalDetected.ContainsAll(r.Comb.Detected) {
			t.Errorf("%s: proposed flow lost C coverage", name)
		}
		if !setCoverage(r, r.Base4Comp).ContainsAll(r.Comb.Detected) {
			t.Errorf("%s: [4] compaction lost coverage", name)
		}
		if r.BaseDyn != nil && !setCoverage(r, r.BaseDyn).ContainsAll(r.Comb.Detected) {
			t.Errorf("%s: dynamic baseline lost coverage", name)
		}
		// τ_seq carries most of the final coverage (the paper's headline).
		frac := float64(p.SeqDetected.Count()) / float64(p.FinalDetected.Count())
		if frac < 0.5 {
			t.Errorf("%s: tau_seq fraction %.2f too low", name, frac)
		}
		// At-speed sequences are at least comparable to [4]'s on average
		// (the paper shows them much longer on most circuits).
		if p.Final.AtSpeed().Average < r.Base4Comp.AtSpeed().Average*0.8 {
			t.Errorf("%s: proposed at-speed average %.2f below [4]'s %.2f",
				name, p.Final.AtSpeed().Average, r.Base4Comp.AtSpeed().Average)
		}
	}
}

func TestRandomArmClaims(t *testing.T) {
	for _, r := range smallRuns(t) {
		if r.ProposedRand == nil {
			t.Fatal("random arm missing")
		}
		name := r.Entry.Params.Name
		pr := r.ProposedRand
		if pr.T0Len != 150 {
			t.Errorf("%s: random T0 length %d, want 150", name, pr.T0Len)
		}
		if !pr.FinalDetected.ContainsAll(r.Comb.Detected) {
			t.Errorf("%s: random arm lost C coverage", name)
		}
	}
}

func TestRunByNameUnknown(t *testing.T) {
	if _, err := RunByName("nope", fastCfg()); err == nil {
		t.Error("unknown circuit must fail")
	}
}

// TestRunRejectsNegativeLengths: a negative T_0 length or partial-scan
// flip-flop count is an error from the pipeline, not a panic inside it
// or a full-scan run under a cache key of its own. Validate rejects
// these, and a config that skips both T_0 arms, before any work starts.
func TestRunRejectsNegativeLengths(t *testing.T) {
	for name, cfg := range map[string]Config{
		"t0maxlen":          {T0MaxLen: -3},
		"randlen":           {RandomT0Len: -5},
		"scanffs":           {ScanFFs: -3},
		"both arms skipped": {SkipDirected: true, SkipRandom: true},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
		if _, err := RunByName("b01", cfg); err == nil {
			t.Errorf("%s: run accepted it", name)
		}
	}
}

// TestCoversC: the pipeline's C-coverage check passes a real run and
// names a final set that misses one fault C detects.
func TestCoversC(t *testing.T) {
	r := smallRuns(t)[0]
	if err := coversC(r.Proposed.FinalDetected, r.Comb.Detected); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	idx := r.Comb.Detected.Indices()
	if len(idx) == 0 {
		t.Fatal("C detects no fault")
	}
	final := r.Proposed.FinalDetected.Clone()
	final.Remove(idx[0])
	if err := coversC(final, r.Comb.Detected); err == nil || !strings.Contains(err.Error(), "misses 1 of") {
		t.Errorf("final set missing a C-detected fault: coversC() = %v", err)
	}
}

// TestNoUntestable: the pipeline's untestable-fault check passes a real
// run and names a detected set that holds a fault PODEM proved
// untestable under full scan; under partial scan it does not apply.
func TestNoUntestable(t *testing.T) {
	r := smallRuns(t)[0]
	s := fsim.New(r.Circuit, r.Faults)
	for name, det := range map[string]*fault.Set{
		"T_0": r.T0Detected, "initial": r.Proposed.InitialDetected, "final": r.Proposed.FinalDetected,
	} {
		if err := noUntestable(s, name, det, r.Comb.Untestable); err != nil {
			t.Fatalf("clean run: %v", err)
		}
	}
	untestable := r.Comb.Untestable.Clone()
	untestable.Add(r.Proposed.FinalDetected.Indices()[0])
	err := noUntestable(s, "final detected set", r.Proposed.FinalDetected, untestable)
	if err == nil || !strings.Contains(err.Error(), "final detected set holds 1 of") {
		t.Errorf("final set holding an untestable fault: noUntestable() = %v", err)
	}
	ch, err := scan.NewChain(r.Circuit.NumFFs(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	partial := fsim.NewChain(r.Circuit, r.Faults, ch)
	if err := noUntestable(partial, "final detected set", r.Proposed.FinalDetected, untestable); err != nil {
		t.Errorf("partial scan: %v", err)
	}
}

// TestCheckedRunWithConstants audits a whole run, every fault, on a
// netlist whose gates read CONST0 and CONST1 nodes: the oracle must
// agree with fsim on every graded set and with the expected responses,
// under full and partial scan.
func TestCheckedRunWithConstants(t *testing.T) {
	ckt, err := bench.ParseFile(filepath.Join("testdata", "const.bench"))
	if err != nil {
		t.Fatal(err)
	}
	for _, scanFFs := range []int{0, 1} {
		cfg := fastCfg()
		cfg.Check, cfg.CheckSample, cfg.ScanFFs = true, -1, scanFFs
		if _, err := RunCircuit(ckt, cfg); err != nil {
			t.Errorf("ScanFFs %d: %v", scanFFs, err)
		}
	}
}

func TestTablesRender(t *testing.T) {
	runs := smallRuns(t)
	out := AllTables(Rows(runs))
	for _, want := range []string{
		"Table 1: Detected faults",
		"Table 2: Test lengths",
		"Table 3: Numbers of clock cycles",
		"Table 4: At-speed test lengths",
		"Table 5: Results for random sequences",
		"b01", "s298", "total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tables output missing %q", want)
		}
	}
}

func TestTable3TotalsConsistent(t *testing.T) {
	runs := smallRuns(t)
	total := 0
	for _, r := range runs {
		total += r.Proposed.Final.Cycles(r.Nsv())
	}
	out := Table3(Rows(runs)).Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "total") {
		t.Fatalf("no total row: %q", last)
	}
	fields := strings.Fields(last)
	// Columns: total, [2,3], [4]init, [4]comp, prop init, prop comp, ...
	if len(fields) < 6 {
		t.Fatalf("total row too short: %q", last)
	}
	if fields[5] != strconv.Itoa(total) {
		t.Errorf("prop comp total = %s, want %d", fields[5], total)
	}
}

func TestSkipArms(t *testing.T) {
	cfg := fastCfg()
	cfg.SkipRandom = true
	cfg.SkipDynamic = true
	r, err := RunByName("b02", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ProposedRand != nil || r.BaseDyn != nil {
		t.Error("skipped arms should be nil")
	}
	out := AllTables(Rows([]*CircuitRun{r}))
	if !strings.Contains(out, "-") {
		t.Error("skipped arms should render as dashes")
	}
}

func TestRosterEntryMetadata(t *testing.T) {
	for _, r := range smallRuns(t) {
		if r.Entry.Scale == 1 && r.Nsv() != r.Entry.PaperFFs {
			t.Errorf("%s: FF count %d != paper %d", r.Entry.Params.Name, r.Nsv(), r.Entry.PaperFFs)
		}
		if r.Circuit == nil || len(r.Faults) == 0 {
			t.Errorf("%s: missing artifacts", r.Entry.Params.Name)
		}
	}
}

func TestTableDelayRender(t *testing.T) {
	runs := smallRuns(t)
	out := TableDelay(Rows(runs)).Render()
	if !strings.Contains(out, "transition-fault") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + one row per circuit.
	if len(lines) != 3+len(runs) {
		t.Errorf("row count = %d, want %d", len(lines)-3, len(runs))
	}
	// The [4]-init column is always 0 (length-1 tests launch nothing).
	for _, l := range lines[3:] {
		f := strings.Fields(l)
		if len(f) < 3 || f[2] != "0" {
			t.Errorf("[4] init column should be 0: %q", l)
		}
	}
}

func TestTablePowerRender(t *testing.T) {
	runs := smallRuns(t)
	out := TablePower(Rows(runs)).Render()
	if !strings.Contains(out, "test power") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3+len(runs) {
		t.Errorf("row count = %d, want %d", len(lines)-3, len(runs))
	}
}

// TestExtensionTablesFollowChain checks that the delay and power tables
// grade a partial-scan row under the run's chain: a scan-out observes
// the scanned flip-flops only, and the shift metrics see scan vectors of
// the chain's length. Graded as full scan, b01's row reads 60 for
// "prop det" and 10 and 15 for the shift columns.
func TestExtensionTablesFollowChain(t *testing.T) {
	cfg := fastCfg()
	cfg.ScanFFs = 3
	run, err := RunByName("b01", cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, ch := run.Circuit, run.Chain
	if ch.Nsv() != 3 || c.NumFFs() <= 3 {
		t.Fatalf("b01 runs %d of %d flip-flops scanned, want 3 of more", ch.Nsv(), c.NumFFs())
	}
	rows := Rows([]*CircuitRun{run})
	cells := func(tab *tabfmt.Table) string {
		lines := strings.Split(strings.TrimSpace(tab.Render()), "\n")
		return strings.Join(strings.Fields(lines[3]), " ")
	}

	tf := tfault.Universe(c)
	s := tfault.NewChain(c, tf, ch)
	want := fmt.Sprint("b01 ", len(tf), " ", s.DetectSet(run.Base4Init).Count(), " ",
		s.DetectSet(run.Base4Comp).Count(), " ", s.DetectSet(run.Proposed.Final).Count(), " ",
		s.DetectSet(run.ProposedRand.Final).Count())
	if got := cells(TableDelay(rows)); got != want {
		t.Errorf("delay row %q, want %q", got, want)
	}

	b := power.Analyze(c, ch, run.Base4Comp)
	p := power.Analyze(c, ch, run.Proposed.Final)
	want = fmt.Sprint("b01 ", b.ShiftInWTM+b.ShiftOutWTM, " ", b.CaptureToggles, " ",
		p.ShiftInWTM+p.ShiftOutWTM, " ", p.CaptureToggles)
	if got := cells(TablePower(rows)); got != want {
		t.Errorf("power row %q, want %q", got, want)
	}
}

// TestRunAllCollectsErrors: a batch keeps running past a failing entry,
// reporting every failure and leaving a nil hole per failed circuit —
// no fail-fast, no lost results.
func TestRunAllCollectsErrors(t *testing.T) {
	names := []string{"b01", "no-such-a", "no-such-b"}
	runs, err := RunAll(names, fastCfg(), 2)
	if err == nil {
		t.Fatal("RunAll with unknown circuits returned no error")
	}
	for _, want := range []string{"no-such-a", "no-such-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error misses %q: %v", want, err)
		}
	}
	if len(runs) != 3 {
		t.Fatalf("got %d results, want 3", len(runs))
	}
	if runs[0] == nil {
		t.Error("the successful entry was discarded")
	}
	if runs[1] != nil || runs[2] != nil {
		t.Error("failed entries should leave nil holes")
	}
	if got := len(Rows(runs)); got != 1 {
		t.Errorf("Rows over holed batch: %d rows, want 1", got)
	}
}
