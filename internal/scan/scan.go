// Package scan defines scan-based tests and test sets for full-scan
// circuits, together with the paper's test-application cost model.
//
// A test τ = (SI, T) scans in the state SI, applies the primary-input
// sequence T at functional speed, and scans out the resulting state. The
// expected scan-out vector SO is fault-free circuit response and is
// recomputed on demand, so it is not stored (the paper drops it from the
// notation for the same reason).
package scan

import (
	"fmt"
	"strings"

	"repro/internal/logic"
)

// Test is one scan test: scan-in vector plus an at-speed PI sequence.
type Test struct {
	SI  logic.Vector   // scan-in state, one value per flip-flop
	Seq logic.Sequence // primary-input vectors applied with the functional clock
}

// Clone returns a deep copy of the test.
func (t Test) Clone() Test {
	return Test{SI: t.SI.Clone(), Seq: t.Seq.Clone()}
}

// Len returns L(T), the number of at-speed primary input vectors.
func (t Test) Len() int { return len(t.Seq) }

// String renders a compact description of the test.
func (t Test) String() string {
	return fmt.Sprintf("(SI=%s, L=%d)", t.SI, t.Len())
}

// Validate checks a test's structural well-formedness against a circuit
// interface with npis primary inputs and nsv scanned state variables:
// the scan-in vector must fit the chain, every at-speed vector must fit
// the primary inputs, and all values must be 0, 1 or X (Z never appears
// in tests — the simulators would silently coerce it to X, so a Z here
// means a construction bug upstream).
func (t Test) Validate(npis, nsv int) error {
	if len(t.SI) > nsv {
		return fmt.Errorf("scan: SI has %d values for %d scanned state variables", len(t.SI), nsv)
	}
	for _, v := range t.SI {
		if v != logic.Zero && v != logic.One && v != logic.X {
			return fmt.Errorf("scan: SI carries non-test value %v", v)
		}
	}
	for u, vec := range t.Seq {
		if len(vec) > npis {
			return fmt.Errorf("scan: vector %d has %d values for %d primary inputs", u, len(vec), npis)
		}
		for _, v := range vec {
			if v != logic.Zero && v != logic.One && v != logic.X {
				return fmt.Errorf("scan: vector %d carries non-test value %v", u, v)
			}
		}
	}
	return nil
}

// Set is an ordered scan test set.
type Set struct {
	Tests []Test
}

// NewSet returns a set holding the given tests.
func NewSet(tests ...Test) *Set { return &Set{Tests: tests} }

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{Tests: make([]Test, len(s.Tests))}
	for i, t := range s.Tests {
		c.Tests[i] = t.Clone()
	}
	return c
}

// Validate checks every test in the set (see Test.Validate).
func (s *Set) Validate(npis, nsv int) error {
	for i, t := range s.Tests {
		if err := t.Validate(npis, nsv); err != nil {
			return fmt.Errorf("test %d: %w", i, err)
		}
	}
	return nil
}

// NumTests returns the number of tests (the k of the cost formula).
func (s *Set) NumTests() int { return len(s.Tests) }

// TotalVectors returns Σ L(T_i).
func (s *Set) TotalVectors() int {
	n := 0
	for _, t := range s.Tests {
		n += t.Len()
	}
	return n
}

// Cycles returns the paper's test-application time in clock cycles:
//
//	N_cyc = (k+1)·N_SV + Σ L(T_i)
//
// for nsv scanned state variables. An empty set costs nothing.
func (s *Set) Cycles(nsv int) int {
	k := len(s.Tests)
	if k == 0 {
		return 0
	}
	return (k+1)*nsv + s.TotalVectors()
}

// AtSpeedStats summarizes the lengths of the at-speed PI sequences in a
// test set (the paper's Table 4).
type AtSpeedStats struct {
	Average float64
	Min     int
	Max     int
}

// AtSpeed computes the average and range of PI sequence lengths.
func (s *Set) AtSpeed() AtSpeedStats {
	if len(s.Tests) == 0 {
		return AtSpeedStats{}
	}
	min, max, sum := s.Tests[0].Len(), s.Tests[0].Len(), 0
	for _, t := range s.Tests {
		l := t.Len()
		sum += l
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	return AtSpeedStats{
		Average: float64(sum) / float64(len(s.Tests)),
		Min:     min,
		Max:     max,
	}
}

// String renders the range in the paper's "min-max" form.
func (a AtSpeedStats) String() string {
	return fmt.Sprintf("ave %.2f range %d-%d", a.Average, a.Min, a.Max)
}

// String renders a short description of the whole set.
func (s *Set) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d tests, %d vectors", s.NumTests(), s.TotalVectors())
	return sb.String()
}
