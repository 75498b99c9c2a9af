package oracle

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/scomp"
	"repro/internal/seqgen"
)

// pipelineFixture runs ATPG + sequential generation for one roster
// circuit, the shared front half of the audit tests.
type pipelineFixture struct {
	c      *gen.RosterEntry
	faults []fault.Fault
	comb   *atpg.Result
	t0     logic.Sequence
	s      *fsim.Simulator
}

func buildFixture(t *testing.T, name string) (*fsim.Simulator, []fault.Fault, *atpg.Result, logic.Sequence) {
	t.Helper()
	c, ok := gen.RosterCircuit(name)
	if !ok {
		t.Fatalf("unknown roster circuit %q", name)
	}
	faults := fault.Collapse(c)
	comb, err := atpg.Generate(c, faults, atpg.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t0 := seqgen.Generate(c, faults, seqgen.Options{Seed: 1, MaxLen: 60}).Seq
	return fsim.New(c, faults), faults, comb, t0
}

// TestAuditCoverageFullSample audits the proposed procedure's final set
// with sampling disabled (every fault, every test) on the smallest
// roster circuit — the exhaustive version of the check -check runs
// sampled.
func TestAuditCoverageFullSample(t *testing.T) {
	s, faults, comb, t0 := buildFixture(t, "b02")
	res, err := core.Run(s, comb.Tests, t0, core.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := AuditCoverage(s.Circuit(), faults, nil, res.Final, res.FinalDetected, res.InitialDetected, AuditOptions{SampleFaults: -1})
	if !rep.Ok() {
		t.Fatalf("exhaustive audit failed:\n%s", rep)
	}
	if rep.Checks == 0 {
		t.Fatal("audit ran no checks")
	}
}

// TestAuditDetectsCorruption over-claims the final set's detections:
// the re-simulation must catch a fault the set does not detect.
func TestAuditDetectsCorruption(t *testing.T) {
	s, faults, comb, t0 := buildFixture(t, "b02")
	res, err := core.Run(s, comb.Tests, t0, core.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalDetected.Count() == len(faults) {
		t.Fatal("final set detects every fault: nothing to over-claim")
	}
	rep := AuditCoverage(s.Circuit(), faults, nil, res.Final, fault.NewFullSet(len(faults)), nil, AuditOptions{SampleFaults: -1})
	if rep.Ok() {
		t.Fatal("audit missed an over-claimed detection set")
	}
}

// TestAuditCoverageBaseline audits the [4] baseline: the compacted set
// must preserve the initial set's coverage, and its claimed detections
// must match the oracle.
func TestAuditCoverageBaseline(t *testing.T) {
	s, faults, comb, _ := buildFixture(t, "b01")
	c := s.Circuit()
	initial := scomp.FromCombTests(comb.Tests)
	compacted, _ := scomp.Compact(s, initial, scomp.Options{})

	claim := func(ts *scan.Set) *fault.Set {
		got := fault.NewSet(len(faults))
		for _, tst := range ts.Tests {
			got.UnionWith(s.DetectTest(tst.SI, tst.Seq, nil))
		}
		return got
	}
	required := claim(initial)
	claimed := claim(compacted)
	rep := AuditCoverage(c, faults, nil, compacted, claimed, required, AuditOptions{})
	if !rep.Ok() {
		t.Fatalf("baseline audit failed:\n%s", rep)
	}

	// Structural corruption: a Z value in a scan-in vector.
	bad := compacted.Clone()
	if len(bad.Tests) > 0 && len(bad.Tests[0].SI) > 0 {
		bad.Tests[0].SI[0] = logic.Z
		rep = AuditCoverage(c, faults, nil, bad, claimed, nil, AuditOptions{})
		if rep.Ok() {
			t.Fatal("audit missed a Z value in a test")
		}
	}
}

// TestValidate covers the scan.Validate satellite directly.
func TestValidate(t *testing.T) {
	ok := scan.Test{
		SI:  logic.Vector{logic.Zero, logic.X},
		Seq: logic.Sequence{{logic.One, logic.Zero, logic.X}},
	}
	if err := ok.Validate(3, 2); err != nil {
		t.Errorf("valid test rejected: %v", err)
	}
	if err := ok.Validate(3, 1); err == nil {
		t.Error("oversized SI accepted")
	}
	if err := ok.Validate(2, 2); err == nil {
		t.Error("oversized vector accepted")
	}
	bad := scan.Test{SI: logic.Vector{logic.Z}}
	if err := bad.Validate(1, 1); err == nil {
		t.Error("Z value accepted")
	}
	set := scan.NewSet(ok, bad)
	if err := set.Validate(3, 2); err == nil {
		t.Error("set with invalid test accepted")
	}
}
