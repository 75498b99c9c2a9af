// Package circuit defines the gate-level netlist representation used by
// every simulator, fault model and test generator in this repository.
//
// The model is the clocked Huffman model used by the ISCAS-89 and ITC-99
// benchmark suites: a combinational gate network, a set of primary inputs
// (PIs), primary outputs (POs), and D flip-flops (DFFs) clocked by a
// single implicit functional clock. Under full scan, every DFF belongs to
// one scan chain: scan-in sets all flip-flop values, scan-out observes
// all of them.
//
// Every node produces exactly one signal. DFF nodes read their data input
// from Fanin[0]; their output value is the current state of the flip-flop
// and only changes when the functional clock is applied.
package circuit

import (
	"fmt"
	"sort"
)

// Kind identifies the function of a node.
type Kind uint8

// Node kinds. Input nodes have no fanin; Const0/Const1 are constant
// drivers; everything else computes a gate function of its fanin.
const (
	Input Kind = iota
	And
	Or
	Nand
	Nor
	Not
	Buf
	Xor
	Xnor
	DFF
	Const0
	Const1
)

var kindNames = [...]string{
	Input: "INPUT", And: "AND", Or: "OR", Nand: "NAND", Nor: "NOR",
	Not: "NOT", Buf: "BUF", Xor: "XOR", Xnor: "XNOR", DFF: "DFF",
	Const0: "CONST0", Const1: "CONST1",
}

// String returns the upper-case mnemonic of k (matching .bench usage).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsGate reports whether k computes a combinational function of fanins.
func (k Kind) IsGate() bool {
	switch k {
	case And, Or, Nand, Nor, Not, Buf, Xor, Xnor:
		return true
	}
	return false
}

// MinFanin returns the minimum legal fanin count for k.
func (k Kind) MinFanin() int {
	switch k {
	case Input, Const0, Const1:
		return 0
	case Not, Buf, DFF:
		return 1
	default:
		return 1
	}
}

// MaxFanin returns the maximum legal fanin count for k, or -1 when
// unbounded.
func (k Kind) MaxFanin() int {
	switch k {
	case Input, Const0, Const1:
		return 0
	case Not, Buf, DFF:
		return 1
	default:
		return -1
	}
}

// Node is one gate, input, constant or flip-flop in the netlist.
type Node struct {
	Kind  Kind
	Name  string
	Fanin []int // indices of driver nodes
}

// Circuit is an immutable, validated netlist. Construct one with a
// Builder or by parsing a .bench file; the constructor computes the
// levelized evaluation order and fanout lists once.
type Circuit struct {
	Name  string
	Nodes []Node

	PIs  []int // node indices of primary inputs, in declaration order
	POs  []int // node indices observed as primary outputs
	DFFs []int // node indices of flip-flops, in scan-chain order

	order   []int   // combinational topological evaluation order
	level   []int   // logic level per node (sources at 0)
	fanout  [][]int // consumer node indices per node
	nodeIdx map[string]int
}

// NumNodes returns the total node count.
func (c *Circuit) NumNodes() int { return len(c.Nodes) }

// NumPIs returns the number of primary inputs.
func (c *Circuit) NumPIs() int { return len(c.PIs) }

// NumPOs returns the number of primary outputs.
func (c *Circuit) NumPOs() int { return len(c.POs) }

// NumFFs returns the number of flip-flops (the N_SV of the paper's
// clock-cycle formula, under full scan).
func (c *Circuit) NumFFs() int { return len(c.DFFs) }

// NumGates returns the number of combinational gate nodes.
func (c *Circuit) NumGates() int {
	n := 0
	for i := range c.Nodes {
		if c.Nodes[i].Kind.IsGate() {
			n++
		}
	}
	return n
}

// EvalOrder returns the topological order in which combinational nodes
// must be evaluated. PIs, DFF outputs and constants are sources and do
// not appear in the order.
func (c *Circuit) EvalOrder() []int { return c.order }

// Level returns the logic level of node n (sources are level 0).
func (c *Circuit) Level(n int) int { return c.level[n] }

// Depth returns the maximum logic level in the circuit.
func (c *Circuit) Depth() int {
	d := 0
	for _, l := range c.level {
		if l > d {
			d = l
		}
	}
	return d
}

// Fanout returns the indices of nodes that read node n's output.
func (c *Circuit) Fanout(n int) []int { return c.fanout[n] }

// NodeByName looks up a node index by name.
func (c *Circuit) NodeByName(name string) (int, bool) {
	i, ok := c.nodeIdx[name]
	return i, ok
}

// IsSource reports whether node n is a value source for combinational
// evaluation (PI, DFF output, or constant).
func (c *Circuit) IsSource(n int) bool {
	switch c.Nodes[n].Kind {
	case Input, DFF, Const0, Const1:
		return true
	}
	return false
}

// Stats summarizes a circuit for reports.
type Stats struct {
	Name  string
	PIs   int
	POs   int
	FFs   int
	Gates int
	Depth int
}

// Stats returns summary statistics.
func (c *Circuit) Stats() Stats {
	return Stats{
		Name:  c.Name,
		PIs:   c.NumPIs(),
		POs:   c.NumPOs(),
		FFs:   c.NumFFs(),
		Gates: c.NumGates(),
		Depth: c.Depth(),
	}
}

// String implements fmt.Stringer with a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d PIs, %d POs, %d FFs, %d gates, depth %d",
		s.Name, s.PIs, s.POs, s.FFs, s.Gates, s.Depth)
}

// finalize validates the node list and computes evaluation order, levels
// and fanout. It is called by Builder.Build and the .bench parser.
func (c *Circuit) finalize() error {
	n := len(c.Nodes)
	c.nodeIdx = make(map[string]int, n)
	for i, nd := range c.Nodes {
		if nd.Name == "" {
			return fmt.Errorf("circuit %s: node %d has no name", c.Name, i)
		}
		if prev, dup := c.nodeIdx[nd.Name]; dup {
			return fmt.Errorf("circuit %s: duplicate node name %q (nodes %d and %d)", c.Name, nd.Name, prev, i)
		}
		c.nodeIdx[nd.Name] = i
		if min := nd.Kind.MinFanin(); len(nd.Fanin) < min {
			return fmt.Errorf("circuit %s: node %q (%v) has %d fanins, needs at least %d",
				c.Name, nd.Name, nd.Kind, len(nd.Fanin), min)
		}
		if max := nd.Kind.MaxFanin(); max >= 0 && len(nd.Fanin) > max {
			return fmt.Errorf("circuit %s: node %q (%v) has %d fanins, allows at most %d",
				c.Name, nd.Name, nd.Kind, len(nd.Fanin), max)
		}
		for _, f := range nd.Fanin {
			if f < 0 || f >= n {
				return fmt.Errorf("circuit %s: node %q references invalid fanin %d", c.Name, nd.Name, f)
			}
		}
	}
	for _, p := range c.POs {
		if p < 0 || p >= n {
			return fmt.Errorf("circuit %s: invalid PO index %d", c.Name, p)
		}
	}

	// Fanout lists. DFF data edges are sequential, but we still record
	// them in fanout (consumers of the Q output are what fanout holds;
	// the D edge is fanout of the driver node).
	c.fanout = make([][]int, n)
	for i, nd := range c.Nodes {
		for _, f := range nd.Fanin {
			c.fanout[f] = append(c.fanout[f], i)
		}
	}

	// Kahn levelization over combinational edges only. DFF nodes are
	// sources: their output value is state, their D input is a sink.
	indeg := make([]int, n)
	for i, nd := range c.Nodes {
		if c.IsSource(i) {
			continue
		}
		indeg[i] = len(nd.Fanin)
	}
	c.level = make([]int, n)
	queue := make([]int, 0, n)
	for i := range c.Nodes {
		if c.IsSource(i) {
			queue = append(queue, i)
		}
	}
	c.order = make([]int, 0, n)
	visited := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		visited++
		if !c.IsSource(cur) {
			c.order = append(c.order, cur)
		}
		for _, succ := range c.fanout[cur] {
			if c.IsSource(succ) {
				continue // edge into a DFF D-pin is sequential
			}
			if l := c.level[cur] + 1; l > c.level[succ] {
				c.level[succ] = l
			}
			indeg[succ]--
			if indeg[succ] == 0 {
				queue = append(queue, succ)
			}
		}
	}
	if visited != n {
		var stuck []string
		for i := range c.Nodes {
			if !c.IsSource(i) && indeg[i] > 0 {
				stuck = append(stuck, c.Nodes[i].Name)
			}
		}
		sort.Strings(stuck)
		if len(stuck) > 8 {
			stuck = stuck[:8]
		}
		return fmt.Errorf("circuit %s: combinational cycle involving %v", c.Name, stuck)
	}
	return nil
}
