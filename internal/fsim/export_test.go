package fsim

// ForceSweep makes every later run of s sweep every frame, whatever the
// gate would choose.
func ForceSweep(s *Simulator) { s.setForce(&frameForce{}) }

// ForceEvents makes every later run of s with at least one vector start
// each pass on event frames, whatever its pass count, and disables the
// share rule. With fallbackAt >= 0 every pass sweeps the frames after
// frame fallbackAt.
func ForceEvents(s *Simulator, fallbackAt int) {
	s.setForce(&frameForce{events: true, fallbackAt: fallbackAt})
}

func (s *Simulator) setForce(f *frameForce) {
	s.mu.Lock()
	s.force = f
	s.mu.Unlock()
}
