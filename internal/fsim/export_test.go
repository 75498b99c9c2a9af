package fsim

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
