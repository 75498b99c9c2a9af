package fsim

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/sim"
)

// A pass evaluates each frame in one of two ways. A swept frame runs
// the whole instruction stream over the batch, good machine included.
// An event frame (sim.BatchEngine.EventFrame) reads the good machine
// from a trace simulated once per run and executes only the
// instructions a faulty machine's divergence reaches. Both produce the
// same detections, so the choice moves only time (DESIGN.md §8).
//
// The gate decides from what the run observes: its pass count and the
// share of the program a frame executes, against the program's one
// event limit (sim.Program.EventLimit). Event frames lose where
// divergence is wide: on small circuits much of the program diverges
// anyway, and the per-instruction bookkeeping costs more than the
// sweep it saves. A pass whose injected gates alone exceed the limit
// starts on the sweep, and a pass sweeps the frames after one that
// executes more than the limit.

// eventMinPasses: a run takes event frames only when its targets fill
// at least this many full-width passes, so the width-1 trace costs at
// most about 5% of the run.
const eventMinPasses = 8

// frameForce overrides the gate on a Simulator (tests only, see
// export_test.go).
type frameForce struct {
	events     bool // event frames on every run with a vector; false: sweep every frame
	fallbackAt int  // with events: every pass sweeps after this frame; -1: never
}

// trace is the good machine's run over one sequence: row u holds the
// value of every arena slot in frame u. Rows are simulated on first
// demand, on a width-1 kernel the trace holds for its run, so a run
// whose passes all end or fall back early simulates only the frames
// they reached. Every pass and worker of the run reads the rows; none
// writes them.
type trace struct {
	seq  logic.Sequence
	wk   *worker // owns the width-1 kernel, clocked past the last row
	mu   sync.Mutex
	rows [][]logic.Value
	n    atomic.Int32 // rows simulated
}

// newTrace starts the good machine's run over seq from state.
func (s *Simulator) newTrace(seq logic.Sequence, state logic.Vector) *trace {
	t := &trace{seq: seq, wk: s.acquire(), rows: make([][]logic.Value, len(seq))}
	eng := t.wk.kernel(1)
	eng.Reset()
	eng.SetStateVector(state)
	return t
}

// row returns frame u's values, indexed by arena slot.
func (t *trace) row(u int) []logic.Value {
	if u < int(t.n.Load()) {
		return t.rows[u]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	eng := t.wk.beng
	for k := int(t.n.Load()); k <= u; k++ {
		eng.SetPIVector(t.seq[k])
		eng.EvalComb()
		t.rows[k] = make([]logic.Value, eng.Program().NumSlots())
		eng.Row(t.rows[k])
		eng.ClockFF()
		t.n.Store(int32(k + 1))
		t.wk.s.traceRows.Add(1)
	}
	return t.rows[u]
}

// gateFrames decides whether the run spec describes, over ntargets
// faults, starts its passes on event frames, and starts the trace they
// read when it does.
func (s *Simulator) gateFrames(spec *runSpec, ntargets int) {
	s.mu.Lock()
	force := s.force
	s.mu.Unlock()
	spec.fallbackAt = -1
	switch {
	case len(spec.seq) == 0:
		return
	case force != nil:
		if !force.events {
			return
		}
		spec.frameLimit = math.MaxInt
		spec.fallbackAt = force.fallbackAt
	case ntargets < eventMinPasses*(64*sim.WideWidth-1):
		return
	default:
		spec.frameLimit = s.program().EventLimit()
	}
	spec.trace = s.newTrace(spec.seq, spec.state)
}

// fallback reports whether a pass that executed executed instructions in
// event frame u sweeps its later frames. A pass whose seeds alone
// exceed the limit sweeps from the start (runPass).
func (spec *runSpec) fallback(u, executed int) bool {
	return executed > spec.frameLimit || u == spec.fallbackAt
}
