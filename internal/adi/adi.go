// Package adi is what remains of the accidental-detection-index fault
// order (arXiv:0710.4637): an Install that does nothing. The order only
// decided which faults share a simulation pass, and since event frames
// and the drop of decided faults it cost time instead of saving it, so
// the library packs passes in ascending fault order.
//
// The package stays only because the benchmark program under perfbench/
// still calls Install in two places. ROADMAP item 1's benchmark change
// removes those calls and deletes this package. Nothing else may call
// it.
package adi

import "repro/internal/fsim"

// Options is the former sampling configuration, kept for the
// benchmark's calls.
type Options struct {
	// Seed is ignored.
	Seed int64
}

// Install leaves s as it is and returns nil.
func Install(s *fsim.Simulator, opt Options) []int {
	return nil
}
