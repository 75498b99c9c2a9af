package atpg

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/scoap"
	"repro/internal/sim"
)

// CombTest is one combinational test c_j: a present-state part and a
// primary-input part. Under full scan it is applied as the scan test
// (State, (PI)) of length one.
type CombTest struct {
	State logic.Vector // values on the present-state lines (scan-in part)
	PI    logic.Vector // values on the primary inputs
}

// ScanTest converts the combinational test into its length-1 scan test.
func (t CombTest) ScanTest() scan.Test {
	return scan.Test{SI: t.State.Clone(), Seq: logic.Sequence{t.PI.Clone()}}
}

// Options configures test generation.
type Options struct {
	// Seed drives the random phase and random fill.
	Seed int64
	// BacktrackLimit bounds PODEM backtracks per fault (0 = default 100).
	BacktrackLimit int
	// Chain restricts the controllable present-state lines and the
	// observable next-state lines to a partial scan chain (nil = full
	// scan). Test State vectors are indexed by chain position.
	Chain *scan.Chain
}

// Result is the outcome of Generate.
type Result struct {
	// Tests is the generated combinational test set C.
	Tests []CombTest
	// Detected, Untestable and Aborted partition the fault list.
	Detected   *fault.Set
	Untestable *fault.Set
	Aborted    *fault.Set
}

// FaultCoverage returns |Detected| / universe size.
func (r *Result) FaultCoverage() float64 {
	return fsim.Coverage(r.Detected, r.Detected.Len())
}

// randomPatterns is the number of random patterns tried before the
// deterministic phase.
const randomPatterns = 256

// Generate produces a compact combinational test set for the full-scan
// view of c over the given fault list. Three phases: random patterns
// with fault dropping, PODEM for the survivors, reverse-order greedy
// compaction.
func Generate(c *circuit.Circuit, faults []fault.Fault, opt Options) (*Result, error) {
	if opt.BacktrackLimit == 0 {
		opt.BacktrackLimit = maxBacktracks
	}
	r := rand.New(rand.NewSource(opt.Seed))
	ch := scan.OrFull(opt.Chain, c.NumFFs())
	simr := fsim.NewChain(c, faults, ch)
	n := len(faults)
	tm := scoap.Compute(c, ch)
	eng := sim.NewBatch(sim.Compile(c), 1)

	res := &Result{
		Detected:   fault.NewSet(n),
		Untestable: fault.NewSet(n),
		Aborted:    fault.NewSet(n),
	}
	remaining := fault.NewSet(n)
	for i := 0; i < n; i++ {
		remaining.Add(i)
	}
	var tests []CombTest

	// Phase 1: random patterns. Keep a pattern iff it detects a new fault.
	for i := 0; i < randomPatterns && remaining.Count() > 0; i++ {
		t := CombTest{
			State: randomVector(r, ch.Nsv()),
			PI:    randomVector(r, c.NumPIs()),
		}
		det := simr.DetectTest(t.State, logic.Sequence{t.PI}, remaining)
		if det.Count() == 0 {
			continue
		}
		tests = append(tests, t)
		res.Detected.UnionWith(det)
		remaining.SubtractWith(det)
	}

	// Phase 2: PODEM per remaining fault, with fault dropping.
	search := newSearch(c, eng, opt.BacktrackLimit, ch, tm)
	remaining.ForEach(func(fi int) {
		if !remaining.Has(fi) {
			return // dropped by an earlier PODEM test in this loop
		}
		assign, status := search.target(faults[fi]).run()
		switch status {
		case Untestable:
			res.Untestable.Add(fi)
			remaining.Remove(fi)
			return
		case Aborted:
			res.Aborted.Add(fi)
			remaining.Remove(fi)
			return
		}
		t := splitAssignment(c, assign)
		fillRandom(r, t.State)
		fillRandom(r, t.PI)
		det := simr.DetectTest(t.State, logic.Sequence{t.PI}, remaining)
		if !det.Has(fi) {
			// The assigned bits alone should detect fi, whatever the
			// X-fill. A miss is a PODEM defect, known under partial scan
			// for an output fault on a scanned flip-flop, whose stuck
			// output masks what the flip-flop captures. The test is
			// dropped and fi stays in remaining: a later test may still
			// detect it, and if none does, Generate fails below with
			// "faults unaccounted for".
			return
		}
		tests = append(tests, t)
		res.Detected.UnionWith(det)
		remaining.SubtractWith(det)
	})

	if remaining.Count() > 0 {
		// PODEM either detects, proves untestable, or aborts; nothing
		// may be left over.
		return nil, fmt.Errorf("atpg %s: %d faults unaccounted for", c.Name, remaining.Count())
	}

	res.Tests = compactReverse(simr, tests, res.Detected)
	return res, nil
}

// compactReverse re-simulates tests in reverse order with fault dropping
// and keeps only tests that detect a not-yet-covered fault. Later tests
// (from the deterministic phase) tend to be "harder" and detect many
// easy faults incidentally, so reverse order drops many early random
// patterns — the classic static compaction of combinational test sets.
func compactReverse(simr *fsim.Simulator, tests []CombTest, covered *fault.Set) []CombTest {
	remaining := covered.Clone()
	var kept []CombTest
	for i := len(tests) - 1; i >= 0; i-- {
		if remaining.Count() == 0 {
			break
		}
		t := tests[i]
		det := simr.DetectTest(t.State, logic.Sequence{t.PI}, remaining)
		if det.Count() == 0 {
			continue
		}
		kept = append(kept, t)
		remaining.SubtractWith(det)
	}
	// Restore generation order (reverse the kept list).
	for l, rr := 0, len(kept)-1; l < rr; l, rr = l+1, rr-1 {
		kept[l], kept[rr] = kept[rr], kept[l]
	}
	return kept
}

// splitAssignment separates a PODEM input assignment (PIs then state)
// into the CombTest parts.
func splitAssignment(c *circuit.Circuit, assign logic.Vector) CombTest {
	npi := c.NumPIs()
	return CombTest{
		PI:    assign[:npi].Clone(),
		State: assign[npi:].Clone(),
	}
}

func randomVector(r *rand.Rand, n int) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		v[i] = logic.Value(r.Intn(2))
	}
	return v
}

func fillRandom(r *rand.Rand, v logic.Vector) {
	for i := range v {
		if !v[i].IsBinary() {
			v[i] = logic.Value(r.Intn(2))
		}
	}
}

// RunPodem exposes a single-fault PODEM run under full scan: it returns
// the input assignment split into a test, and the search status. The
// tests use it to check PODEM against exhaustive search.
func RunPodem(c *circuit.Circuit, f fault.Fault, backtrackLimit int) (CombTest, Status) {
	return RunPodemChain(c, f, backtrackLimit, nil)
}

// RunPodemChain is RunPodem under a partial scan chain (nil = full
// scan); the returned State is indexed by chain position.
func RunPodemChain(c *circuit.Circuit, f fault.Fault, backtrackLimit int, ch *scan.Chain) (CombTest, Status) {
	if backtrackLimit <= 0 {
		backtrackLimit = maxBacktracks
	}
	ch = scan.OrFull(ch, c.NumFFs())
	p := newPodem(c, sim.NewBatch(sim.Compile(c), 1), f, backtrackLimit, ch, scoap.Compute(c, ch))
	assign, status := p.run()
	if status != Detected {
		return CombTest{}, status
	}
	return splitAssignment(c, assign), status
}
