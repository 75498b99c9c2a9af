package core

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/scan"
	"repro/internal/seqgen"
)

// TestRunPartialScan exercises the paper's sketched extension: the whole
// four-phase procedure on a circuit where only half the flip-flops are
// scanned. The chain-aware simulator carries the semantics; the
// procedure itself is unchanged.
func TestRunPartialScan(t *testing.T) {
	c := gen.MustGenerate(gen.Params{Name: "ps", Seed: 207, PIs: 5, POs: 4, FFs: 12, Gates: 140})
	faults := fault.Collapse(c)

	// Scan the even flip-flops only.
	var ffs []int
	for i := 0; i < c.NumFFs(); i += 2 {
		ffs = append(ffs, i)
	}
	ch, err := scan.NewChain(c.NumFFs(), ffs)
	if err != nil {
		t.Fatal(err)
	}

	comb, err := atpg.Generate(c, faults, atpg.Options{Seed: 207, Chain: ch})
	if err != nil {
		t.Fatal(err)
	}
	if len(comb.Tests) == 0 {
		t.Fatal("no partial-scan tests generated")
	}
	t0 := seqgen.Generate(c, faults, seqgen.Options{Seed: 207, MaxLen: 120})

	s := fsim.NewChain(c, faults, ch)
	res, err := Run(s, comb.Tests, t0.Seq, Options{})
	if err != nil {
		t.Fatalf("partial-scan run: %v", err)
	}

	// Structural checks: scan-in width is the chain length, cost model
	// uses the chain's N_SV.
	if len(res.TauSeq.SI) != ch.Nsv() {
		t.Errorf("tau_seq SI width %d, want chain %d", len(res.TauSeq.SI), ch.Nsv())
	}
	if res.Final.Cycles(s.Nsv()) > res.Initial.Cycles(s.Nsv()) {
		t.Error("phase 4 grew cycles under partial scan")
	}
	// Coverage: complete relative to the partial-scan-detectable set.
	if !res.FinalDetected.ContainsAll(comb.Detected) {
		t.Error("partial-scan flow must cover every C-detectable fault")
	}

	// Comparison with full scan: partial scan detects no more faults,
	// but each scan operation costs fewer cycles.
	combFull, err := atpg.Generate(c, faults, atpg.Options{Seed: 207})
	if err != nil {
		t.Fatal(err)
	}
	sFull := fsim.New(c, faults)
	resFull, err := Run(sFull, combFull.Tests, t0.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalDetected.Count() > resFull.FinalDetected.Count() {
		t.Errorf("partial scan coverage %d exceeds full scan %d",
			res.FinalDetected.Count(), resFull.FinalDetected.Count())
	}
	t.Logf("full scan: %d faults, %d cycles; partial scan (%d/%d FFs): %d faults, %d cycles",
		resFull.FinalDetected.Count(), resFull.Final.Cycles(sFull.Nsv()),
		ch.Nsv(), c.NumFFs(),
		res.FinalDetected.Count(), res.Final.Cycles(s.Nsv()))
}
