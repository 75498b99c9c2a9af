package fsim

import (
	"repro/internal/fault"
	"repro/internal/logic"
)

// ForceSweep makes every later run of s sweep every frame, whatever the
// gate would choose.
func ForceSweep(s *Simulator) { s.setForce(&frameForce{}) }

// ForceEvents makes every later run of s with at least one vector start
// each pass on event frames, whatever its pass count or injected gates,
// and disables the share rule. With fallbackAt >= 0 every pass sweeps
// the frames after frame fallbackAt.
func ForceEvents(s *Simulator, fallbackAt int) {
	s.setForce(&frameForce{events: true, fallbackAt: fallbackAt})
}

func (s *Simulator) setForce(f *frameForce) {
	s.mu.Lock()
	s.force = f
	s.mu.Unlock()
}

// TraceRows returns the number of good-trace rows the runs of s have
// simulated: none unless some pass started on event frames.
func TraceRows(s *Simulator) int64 { return s.traceRows.Load() }

// Resume runs the test of cp from position q over seq, the vectors that
// now follow q, and returns the Record of the whole test over targets:
// a resumed run without the must-detect abort, so a test can compare
// every target's entry with a full run's. It panics as ResumeMustInto
// does.
func Resume(s *Simulator, cp *Checkpoints, q int, seq logic.Sequence, targets *fault.Set) *Record {
	spec := cp.resume(q, targets)
	r := newRecord(len(s.faults), q+len(seq))
	spec.rec = r
	s.run(seq, Options{Init: cp.si, ScanOut: cp.scanOut, Targets: targets}, r.det, spec)
	return r
}
