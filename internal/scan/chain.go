package scan

import (
	"fmt"

	"repro/internal/logic"
)

// Chain describes which flip-flops of a circuit are scanned and in what
// order, and owns the one scan rule every simulator outside the
// reference oracle follows: chain position k loads and observes
// flip-flop FFs[k]. Full scan is the chain Full builds, every flip-flop
// in circuit order, the paper's main setting; a shorter chain is the
// partial-scan extension its conclusion sketches. Entry points that
// accept a nil *Chain resolve it once to Full (OrFull). Build chains
// with NewChain or Full, and treat them as immutable.
type Chain struct {
	// FFs holds the scanned flip-flop indices (positions in the
	// circuit's DFF list) in scan order.
	FFs []int

	nff int // the circuit's flip-flop count
}

// NewChain validates and returns a chain over the given flip-flop
// positions for a circuit with nff flip-flops.
func NewChain(nff int, ffs []int) (*Chain, error) {
	seen := make(map[int]bool, len(ffs))
	for _, f := range ffs {
		if f < 0 || f >= nff {
			return nil, fmt.Errorf("scan: chain position %d outside [0,%d)", f, nff)
		}
		if seen[f] {
			return nil, fmt.Errorf("scan: flip-flop %d scanned twice", f)
		}
		seen[f] = true
	}
	return &Chain{FFs: append([]int(nil), ffs...), nff: nff}, nil
}

// Full returns the full-scan chain of a circuit with nff flip-flops:
// every flip-flop, in circuit order.
func Full(nff int) *Chain {
	ffs := make([]int, nff)
	for i := range ffs {
		ffs[i] = i
	}
	return &Chain{FFs: ffs, nff: nff}
}

// OrFull returns ch, or Full(nff) when ch is nil: the one place a nil
// chain becomes full scan.
func OrFull(ch *Chain, nff int) *Chain {
	if ch == nil {
		return Full(nff)
	}
	return ch
}

// Nsv returns the number of scanned state variables — the N_SV of the
// cost formula.
func (ch *Chain) Nsv() int { return len(ch.FFs) }

// State returns the flip-flop state a scan-in of si loads, indexed by
// flip-flop position: chain position k loads flip-flop FFs[k], and
// unscanned flip-flops and positions past len(si) are X. A nil si loads
// nothing, leaving every flip-flop X (the power-up state of a run
// without scan).
func (ch *Chain) State(si logic.Vector) logic.Vector {
	st := logic.NewVector(ch.nff, logic.X)
	for k, ff := range ch.FFs[:min(len(si), len(ch.FFs))] {
		st[ff] = si[k]
	}
	return st
}

// String renders a short description.
func (ch *Chain) String() string {
	return fmt.Sprintf("chain(%d FFs)", len(ch.FFs))
}
