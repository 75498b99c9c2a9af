// Package scoap computes SCOAP testability measures (Goldstein 1979):
// combinational 0/1-controllability per line and observability per line,
// for the full-scan or partial-scan single-frame view of a sequential
// circuit. The ATPG uses them to rank backtrace choices — set the
// easiest input when one controlling value suffices, attack the hardest
// requirement first when all inputs must comply.
//
// Conventions: primary inputs and scanned present-state lines cost 1 to
// control; unscanned present-state lines are uncontrollable (Inf).
// Primary outputs and scanned next-state lines have observability 0;
// everything invisible stays at Inf.
package scoap

import (
	"repro/internal/circuit"
	"repro/internal/scan"
)

// Inf marks an uncontrollable or unobservable line.
const Inf int32 = 1 << 30

// Measures holds the per-node testability values.
type Measures struct {
	CC0 []int32 // cost of setting the node to 0
	CC1 []int32 // cost of setting the node to 1
	CO  []int32 // cost of observing the node
}

// add saturates at Inf.
func add(a, b int32) int32 {
	if a >= Inf || b >= Inf {
		return Inf
	}
	s := a + b
	if s >= Inf {
		return Inf
	}
	return s
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// Compute returns the SCOAP measures of c under the given scan chain
// (nil = full scan).
func Compute(c *circuit.Circuit, ch *scan.Chain) *Measures {
	ch = scan.OrFull(ch, c.NumFFs())
	n := c.NumNodes()
	m := &Measures{
		CC0: make([]int32, n),
		CC1: make([]int32, n),
		CO:  make([]int32, n),
	}

	// Controllability: sources first, then topological order.
	for i := range m.CC0 {
		m.CC0[i], m.CC1[i] = Inf, Inf
	}
	for _, pi := range c.PIs {
		m.CC0[pi], m.CC1[pi] = 1, 1
	}
	for _, pos := range ch.FFs {
		ff := c.DFFs[pos]
		m.CC0[ff], m.CC1[ff] = 1, 1
	}
	for i := range c.Nodes {
		switch c.Nodes[i].Kind {
		case circuit.Const0:
			m.CC0[i], m.CC1[i] = 0, Inf
		case circuit.Const1:
			m.CC0[i], m.CC1[i] = Inf, 0
		}
	}
	for _, g := range c.EvalOrder() {
		nd := &c.Nodes[g]
		switch nd.Kind {
		case circuit.Buf:
			f := nd.Fanin[0]
			m.CC0[g] = add(m.CC0[f], 1)
			m.CC1[g] = add(m.CC1[f], 1)
		case circuit.Not:
			f := nd.Fanin[0]
			m.CC0[g] = add(m.CC1[f], 1)
			m.CC1[g] = add(m.CC0[f], 1)
		case circuit.And, circuit.Nand:
			all1 := int32(0)
			one0 := Inf
			for _, f := range nd.Fanin {
				all1 = add(all1, m.CC1[f])
				one0 = min32(one0, m.CC0[f])
			}
			hi, lo := add(all1, 1), add(one0, 1)
			if nd.Kind == circuit.And {
				m.CC1[g], m.CC0[g] = hi, lo
			} else {
				m.CC0[g], m.CC1[g] = hi, lo
			}
		case circuit.Or, circuit.Nor:
			all0 := int32(0)
			one1 := Inf
			for _, f := range nd.Fanin {
				all0 = add(all0, m.CC0[f])
				one1 = min32(one1, m.CC1[f])
			}
			lo, hi := add(all0, 1), add(one1, 1)
			if nd.Kind == circuit.Or {
				m.CC0[g], m.CC1[g] = lo, hi
			} else {
				m.CC1[g], m.CC0[g] = lo, hi
			}
		case circuit.Xor, circuit.Xnor:
			// Fold pairwise: cost of parity 0/1 over the prefix.
			c0, c1 := m.CC0[nd.Fanin[0]], m.CC1[nd.Fanin[0]]
			for _, f := range nd.Fanin[1:] {
				n0 := min32(add(c0, m.CC0[f]), add(c1, m.CC1[f]))
				n1 := min32(add(c0, m.CC1[f]), add(c1, m.CC0[f]))
				c0, c1 = n0, n1
			}
			c0, c1 = add(c0, 1), add(c1, 1)
			if nd.Kind == circuit.Xor {
				m.CC0[g], m.CC1[g] = c0, c1
			} else {
				m.CC0[g], m.CC1[g] = c1, c0
			}
		}
	}

	// Observability: observation points first, then reverse topological
	// order, taking the minimum over fanout branches.
	for i := range m.CO {
		m.CO[i] = Inf
	}
	for _, po := range c.POs {
		m.CO[po] = 0
	}
	for _, pos := range ch.FFs {
		m.CO[c.Nodes[c.DFFs[pos]].Fanin[0]] = 0
	}
	order := c.EvalOrder()
	for oi := len(order) - 1; oi >= 0; oi-- {
		g := order[oi]
		nd := &c.Nodes[g]
		for pin, f := range nd.Fanin {
			var cost int32
			switch nd.Kind {
			case circuit.Buf, circuit.Not:
				cost = add(m.CO[g], 1)
			case circuit.And, circuit.Nand:
				side := int32(0)
				for p2, f2 := range nd.Fanin {
					if p2 != pin {
						side = add(side, m.CC1[f2])
					}
				}
				cost = add(m.CO[g], add(side, 1))
			case circuit.Or, circuit.Nor:
				side := int32(0)
				for p2, f2 := range nd.Fanin {
					if p2 != pin {
						side = add(side, m.CC0[f2])
					}
				}
				cost = add(m.CO[g], add(side, 1))
			case circuit.Xor, circuit.Xnor:
				side := int32(0)
				for p2, f2 := range nd.Fanin {
					if p2 != pin {
						side = add(side, min32(m.CC0[f2], m.CC1[f2]))
					}
				}
				cost = add(m.CO[g], add(side, 1))
			default:
				cost = Inf
			}
			m.CO[f] = min32(m.CO[f], cost)
		}
	}
	return m
}

// CC returns the controllability of node n toward value one (true) or
// zero (false).
func (m *Measures) CC(n int, one bool) int32 {
	if one {
		return m.CC1[n]
	}
	return m.CC0[n]
}
