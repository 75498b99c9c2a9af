package tfault

// ForceSweep makes every later capture frame of s sweep the program,
// whatever its launched-fault count.
func ForceSweep(s *Simulator) { s.force = sweepFrames }

// ForceEvents makes every later capture frame of s an event frame,
// whatever its launched-fault count.
func ForceEvents(s *Simulator) { s.force = eventFrames }
