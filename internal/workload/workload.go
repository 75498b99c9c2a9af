// Package workload runs the paper's experimental pipeline end to end for
// one circuit or for the whole roster, and assembles the row data of the
// paper's Tables 1-5.
//
// Per circuit the pipeline is:
//
//  1. generate the synthetic substitute netlist (internal/gen roster);
//  2. collapse the stuck-at fault universe;
//  3. generate the combinational test set C (internal/atpg, the paper's
//     [9] substitute);
//  4. generate the sequential test sequence T_0 (internal/seqgen, the
//     paper's STRATEGATE/PROPTEST substitute) and compact it with vector
//     omission (the paper's [11] substitute);
//  5. run the baselines: the initial and compacted test sets of [4]
//     (internal/scomp) and the dynamic compaction of [2,3]
//     (internal/dyncomp);
//  6. run the proposed procedure with the ATPG T_0 and with a random
//     T_0 of length 1000 (internal/core).
package workload

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dyncomp"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/scomp"
	"repro/internal/seqgen"
	"repro/internal/vecomit"
)

// Config tunes the pipeline. The zero value reproduces the paper's
// setup (random T_0 length 1000; everything else defaulted). Two
// choices are fixed, not configurable: every run targets the
// structurally collapsed fault list (fault.CollapseWithMap), and
// conditions the directed T_0 with vector omission, the role of [11] in
// the paper.
type Config struct {
	// Seed offsets every per-circuit seed; 0 keeps the roster defaults.
	Seed int64
	// T0MaxLen caps the directed T_0 length (0 = default 300).
	T0MaxLen int
	// RandomT0Len is the random-sequence length (0 = the paper's 1000).
	RandomT0Len int
	// SkipRandom skips the random-T_0 arm (Tables 3-5 right columns).
	SkipRandom bool
	// SkipDynamic skips the [2,3] dynamic baseline (Table 3 column 1).
	SkipDynamic bool
	// Workers bounds the worker fan-out of each fault-simulation run
	// (fsim.Simulator.SetWorkers): 0 keeps runs serial, negative selects
	// runtime.NumCPU(). Results are identical for any value.
	Workers int
	// Check audits every run against the reference simulator in package
	// oracle: the T_0 grading, the baselines and both arms of the
	// proposed procedure, by sampled re-simulation. A violation fails
	// the run. Sampled, but still several times slower than an unchecked
	// run. The paper's invariants that need no simulation are checked on
	// every run, with or without Check.
	Check bool
	// CheckSample bounds the faults re-simulated per audited artifact
	// (0 = the oracle's default, negative = every fault).
	CheckSample int
	// ScanFFs enables partial scan: only the first ScanFFs flip-flops
	// join the scan chain (0 or >= the FF count keeps full scan;
	// negative is rejected). The chain threads through ATPG, the
	// simulator, the oracle audit and the delay and power tables.
	ScanFFs int
	// SkipBaselines skips the [4] static-compaction baselines and the
	// dynamic baseline (the proposed-procedure-only mode the scancompact
	// CLI uses).
	SkipBaselines bool
	// SkipDirected skips the directed-T_0 arm entirely (no sequential
	// generation, no [11]-style conditioning); combine with RandomT0Len
	// to run the random arm alone.
	SkipDirected bool
	// Progress, when non-nil, is called with a short phase name ("atpg",
	// "t0", "baselines", "proposed", "random", "audit") as the pipeline
	// enters each phase. Observation only — it never changes results.
	Progress func(phase string) `json:"-"`
	// Core passes extra options to the proposed procedure.
	Core core.Options `json:"-"`
}

// Chain builds the scan chain the config implies for ckt: the first
// ScanFFs flip-flops, or scan.Full when ScanFFs is 0 or covers every
// flip-flop. Shared by the pipeline, by the extension tables and by
// clients that need the chain to post-process a cached result (e.g.
// expected-response generation): a run's chain is always the first
// N_SV flip-flops, so Config{ScanFFs: row.Nsv} rebuilds it.
func (c Config) Chain(ckt *circuit.Circuit) *scan.Chain {
	nff := ckt.NumFFs()
	if c.ScanFFs <= 0 || c.ScanFFs >= nff {
		return scan.Full(nff)
	}
	ffs := make([]int, c.ScanFFs)
	for i := range ffs {
		ffs[i] = i
	}
	ch, err := scan.NewChain(nff, ffs)
	if err != nil {
		panic(err) // a prefix of the flip-flops is always a valid chain
	}
	return ch
}

// Validate rejects settings no run can use: a negative directed T_0
// cap or random T_0 length (0 selects the default), a negative
// partial-scan flip-flop count, or skipping both T_0 arms. The jobs
// layer calls it when a request is submitted, so a bad config fails
// before a job exists.
func (c Config) Validate() error {
	if c.T0MaxLen < 0 {
		return fmt.Errorf("workload: negative T0MaxLen %d", c.T0MaxLen)
	}
	if c.RandomT0Len < 0 {
		return fmt.Errorf("workload: negative RandomT0Len %d", c.RandomT0Len)
	}
	if c.ScanFFs < 0 {
		return fmt.Errorf("workload: negative ScanFFs %d", c.ScanFFs)
	}
	if c.SkipDirected && c.SkipRandom {
		return fmt.Errorf("workload: SkipDirected and SkipRandom leave nothing to run")
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.T0MaxLen == 0 {
		c.T0MaxLen = 300
	}
	if c.RandomT0Len == 0 {
		c.RandomT0Len = 1000
	}
	// Bound the scan-in selection cost on the larger circuits: score
	// candidates on a fault sample (504 faults, 2 simulation passes) and
	// a stride over C; the winner is still evaluated exactly (see
	// core.Options). Each candidate's passes mostly end within a few
	// vectors, where its machines re-join the first candidate's
	// (fsim.ScanInScores), so the sample now mostly bounds that first
	// run, which sweeps every vector.
	if c.Core.SIScoreSample == 0 {
		c.Core.SIScoreSample = 504
	}
	if c.Core.SICandidateLimit == 0 {
		c.Core.SICandidateLimit = 48
	}
	if c.Core.MaxIterations == 0 {
		c.Core.MaxIterations = 5
	}
	return c
}

// CircuitRun holds every artifact produced for one circuit.
type CircuitRun struct {
	Entry   gen.RosterEntry
	Circuit *circuit.Circuit
	// Chain is the scan chain: scan.Full under full scan, which a run
	// assembled outside the pipeline may also leave nil.
	Chain  *scan.Chain
	Faults []fault.Fault
	// Collapsed maps the simulated representatives (Faults) back to the
	// full fault universe.
	Collapsed *fault.Collapsed
	// SimStats is the pipeline simulator's cumulative pass work.
	SimStats fsim.PassStats

	Comb       *atpg.Result   // the combinational test set C
	T0         logic.Sequence // directed sequence after [11]-style compaction
	T0Detected *fault.Set

	Base4Init *scan.Set // [4]'s initial set: C as length-1 scan tests
	Base4Comp *scan.Set // [4]'s compacted set
	BaseDyn   *scan.Set // [2,3]-style dynamic compaction (nil if skipped)

	Proposed     *core.Result // proposed procedure, directed T_0
	ProposedRand *core.Result // proposed procedure, random T_0 (nil if skipped)
}

// Nsv returns the scanned state variable count.
func (r *CircuitRun) Nsv() int { return scan.OrFull(r.Chain, r.Circuit.NumFFs()).Nsv() }

// Run executes the pipeline for one roster entry. The effective seed is
// entry.Params.Seed + cfg.Seed, so the roster defaults reproduce the
// paper's setup.
func Run(entry gen.RosterEntry, cfg Config) (*CircuitRun, error) {
	ckt, err := gen.Generate(entry.Params)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %v", entry.Params.Name, err)
	}
	return runPipeline(ckt, entry, entry.Params.Seed+cfg.Seed, cfg)
}

// RunCircuit executes the pipeline for an already-built circuit (for
// example one parsed from an uploaded .bench netlist). The effective
// seed is cfg.Seed alone — there is no roster entry to offset it.
func RunCircuit(ckt *circuit.Circuit, cfg Config) (*CircuitRun, error) {
	entry := gen.RosterEntry{
		Params: gen.Params{
			Name: ckt.Name,
			PIs:  ckt.NumPIs(),
			POs:  ckt.NumPOs(),
			FFs:  ckt.NumFFs(),
		},
		PaperFFs: ckt.NumFFs(),
		Scale:    1,
	}
	return runPipeline(ckt, entry, cfg.Seed, cfg)
}

// runPipeline is the shared pipeline body behind Run and RunCircuit —
// the one code path the CLIs and the compactd service both execute.
func runPipeline(ckt *circuit.Circuit, entry gen.RosterEntry, seed int64, cfg Config) (*CircuitRun, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	name := entry.Params.Name

	chain := cfg.Chain(ckt)
	collapsed := fault.CollapseWithMap(ckt)
	faults := collapsed.Reps

	progress("atpg")
	comb, err := atpg.Generate(ckt, faults, atpg.Options{Seed: seed, Chain: chain})
	if err != nil {
		return nil, fmt.Errorf("workload %s: %v", name, err)
	}
	if len(comb.Tests) == 0 {
		return nil, fmt.Errorf("workload %s: empty combinational test set", name)
	}

	s := fsim.NewChain(ckt, faults, chain)
	if cfg.Workers != 0 {
		s.SetWorkers(cfg.Workers)
	}
	run := &CircuitRun{Entry: entry, Circuit: ckt, Chain: chain, Faults: faults, Collapsed: collapsed, Comb: comb}

	// Directed T_0, compacted the way [11] conditions the sequences the
	// paper takes from [10]/[12].
	if !cfg.SkipDirected {
		progress("t0")
		t0res := seqgen.Generate(ckt, faults, seqgen.Options{Seed: seed, MaxLen: cfg.T0MaxLen})
		if len(t0res.Seq) == 0 {
			return nil, fmt.Errorf("workload %s: empty T0", name)
		}
		t0c := t0res.Seq
		if len(t0c) <= core.OmitMaxLen {
			t0c, _ = vecomit.CompactSequence(s, t0res.Seq, t0res.Detected,
				vecomit.Options{MaxPasses: 1})
		}
		run.T0 = t0c
		run.T0Detected = s.Detect(t0c, fsim.Options{})
		if err := noUntestable(s, "T_0 detected set", run.T0Detected, comb.Untestable); err != nil {
			return nil, fmt.Errorf("workload %s: %v", name, err)
		}
	}

	// Baselines.
	if !cfg.SkipBaselines {
		progress("baselines")
		run.Base4Init = scomp.FromCombTests(comb.Tests)
		run.Base4Comp, _ = scomp.Compact(s, run.Base4Init, scomp.Options{})
		if !cfg.SkipDynamic {
			run.BaseDyn, _ = dyncomp.Compact(s, comb.Tests, dyncomp.Options{})
		}
	}

	// Proposed procedure, both T_0 sources.
	if !cfg.SkipDirected {
		progress("proposed")
		run.Proposed, err = runCore(s, comb, run.T0, cfg.Core)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %v", name, err)
		}
	}
	if !cfg.SkipRandom {
		progress("random")
		randT0 := seqgen.Random(ckt, cfg.RandomT0Len, seed+1)
		run.ProposedRand, err = runCore(s, comb, randT0, cfg.Core)
		if err != nil {
			return nil, fmt.Errorf("workload %s (random T0): %v", name, err)
		}
	}
	run.SimStats = s.Stats() // before the audit's extra re-simulation
	if cfg.Check {
		progress("audit")
		if err := auditRun(s, run, cfg.CheckSample); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// runCore runs the proposed procedure on t0 and checks the invariants
// core cannot see: the final coverage is at least C's, and neither the
// initial nor the final set detects a fault PODEM proved untestable.
func runCore(s *fsim.Simulator, comb *atpg.Result, t0 logic.Sequence, opt core.Options) (*core.Result, error) {
	res, err := core.Run(s, comb.Tests, t0, opt)
	if err != nil {
		return nil, err
	}
	if err := coversC(res.FinalDetected, comb.Detected); err != nil {
		return nil, err
	}
	if err := noUntestable(s, "initial detected set", res.InitialDetected, comb.Untestable); err != nil {
		return nil, err
	}
	if err := noUntestable(s, "final detected set", res.FinalDetected, comb.Untestable); err != nil {
		return nil, err
	}
	return res, nil
}

// coversC reports a final detection set that misses a fault C detects.
// Phase 3 tops τ_seq up with tests of C and Phase 4 keeps coverage, so
// a miss is a defect, never a result.
func coversC(final, c *fault.Set) error {
	if final.ContainsAll(c) {
		return nil
	}
	missing := c.Clone()
	missing.SubtractWith(final)
	return fmt.Errorf("invariant: final set misses %d of the %d faults C detects", missing.Count(), c.Count())
}

// noUntestable reports a detected set of s's runs that holds faults
// PODEM proved untestable. Under full scan such a fault is
// combinationally redundant, so no scan test detects it and a detection
// is a simulator defect. Under partial scan PODEM's verdict is no
// sequential proof, and the check passes.
func noUntestable(s *fsim.Simulator, name string, det, untestable *fault.Set) error {
	if s.Nsv() < s.Circuit().NumFFs() {
		return nil
	}
	bad := det.Clone()
	bad.IntersectWith(untestable)
	if n := bad.Count(); n > 0 {
		return fmt.Errorf("invariant: the %s holds %d of the %d faults PODEM proved untestable", name, n, untestable.Count())
	}
	return nil
}

// RunByName runs the pipeline for a roster (or XL-roster) circuit by
// name.
func RunByName(name string, cfg Config) (*CircuitRun, error) {
	if e, ok := gen.FindEntry(name); ok {
		return Run(e, cfg)
	}
	return nil, fmt.Errorf("workload: unknown roster circuit %q", name)
}

// RunAll runs the pipeline for the named circuits (nil = whole roster)
// with the given parallelism (<=0 means 4). Results keep roster order.
// Every entry runs to completion regardless of sibling failures: a
// failed entry leaves a nil hole in the result slice and contributes
// one error to the joined error value, so a batch job over many
// circuits salvages every run that succeeded.
func RunAll(names []string, cfg Config, parallelism int) ([]*CircuitRun, error) {
	if names == nil {
		names = gen.RosterNames()
	}
	if parallelism <= 0 {
		parallelism = 4
	}
	runs := make([]*CircuitRun, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			runs[i], errs[i] = RunByName(name, cfg)
		}(i, name)
	}
	wg.Wait()
	return runs, errors.Join(errs...)
}
