// External test package: the oracle imports fsim (which scomp also
// drives), so an internal test would create an import cycle.
package scomp_test

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/scomp"
)

// TestCompactPreservesCoverageOracle checks [4]'s static-combining
// contract against the reference simulator: the compacted set covers
// everything the initial set covered, costs no more cycles, and its
// coverage claim survives a full (unsampled) oracle audit.
func TestCompactPreservesCoverageOracle(t *testing.T) {
	c := gen.MustGenerate(gen.Params{Name: "sc", Seed: 41, PIs: 4, POs: 3, FFs: 7, Gates: 90})
	faults := fault.Collapse(c)
	comb, err := atpg.Generate(c, faults, atpg.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := fsim.New(c, faults)
	orc := oracle.New(c, faults)
	initial := scomp.FromCombTests(comb.Tests)
	required := orc.DetectSet(initial, nil)

	compacted, st := scomp.Compact(s, initial, scomp.Options{})
	after := orc.DetectSet(compacted, nil)
	if !after.ContainsAll(required) {
		missing := required.Clone()
		missing.SubtractWith(after)
		t.Fatalf("combining lost %d faults (%d combinations)", missing.Count(), st.Combined)
	}
	nsv := c.NumFFs()
	if compacted.Cycles(nsv) > initial.Cycles(nsv) {
		t.Fatalf("compaction raised N_cyc (%d → %d)", initial.Cycles(nsv), compacted.Cycles(nsv))
	}
	rep := oracle.AuditCoverage(c, faults, nil, compacted, after, required,
		oracle.AuditOptions{SampleFaults: -1})
	if !rep.Ok() {
		t.Fatalf("audit failed:\n%s", rep)
	}
}

// TestFromCombTestsShape pins the [4] initial-set construction the
// audits rely on: one length-1 scan test per combinational test.
func TestFromCombTestsShape(t *testing.T) {
	c := gen.MustGenerate(gen.Params{Name: "sc2", Seed: 42, PIs: 3, POs: 2, FFs: 5, Gates: 50})
	faults := fault.Collapse(c)
	comb, err := atpg.Generate(c, faults, atpg.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := scomp.FromCombTests(comb.Tests)
	if ts.NumTests() != len(comb.Tests) {
		t.Fatalf("%d tests from %d comb tests", ts.NumTests(), len(comb.Tests))
	}
	if err := ts.Validate(c.NumPIs(), c.NumFFs()); err != nil {
		t.Fatal(err)
	}
	for i, tst := range ts.Tests {
		if tst.Len() != 1 {
			t.Fatalf("test %d has length %d, want 1", i, tst.Len())
		}
	}
}
