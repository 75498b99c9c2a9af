package scan

import "fmt"

// Chain describes which flip-flops of a circuit are scanned and in what
// order. A nil *Chain means full scan (every flip-flop, in circuit
// order) throughout this repository — the paper's main setting; partial
// scan is the extension its conclusion sketches.
type Chain struct {
	// FFs holds the scanned flip-flop indices (positions in the
	// circuit's DFF list) in scan order.
	FFs []int
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
	return &Chain{FFs: append([]int(nil), ffs...)}, nil
}

// Nsv returns the number of scanned state variables — the N_SV of the
// cost formula. For a nil chain the caller should use the circuit's
// flip-flop count.
func (ch *Chain) Nsv() int { return len(ch.FFs) }

// Has reports whether flip-flop position ff is scanned.
func (ch *Chain) Has(ff int) bool {
	for _, f := range ch.FFs {
		if f == ff {
			return true
		}
	}
	return false
}

// String renders a short description.
func (ch *Chain) String() string {
	return fmt.Sprintf("chain(%d FFs)", len(ch.FFs))
}
