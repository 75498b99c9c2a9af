package tfault

// ForceSweep makes every later capture frame of s sweep the program,
// whatever its launched-fault count.
func ForceSweep(s *Simulator) { s.force = sweepFrames }

// ForceEvents makes every later capture frame of s an event frame,
// whatever its launched-fault count.
func ForceEvents(s *Simulator) { s.force = eventFrames }

// FrameWidth returns the width in words of s's last capture frame (the
// wide width before any frame runs).
func FrameWidth(s *Simulator) int { return s.eng.Width() }
