// Package fault defines the single stuck-at fault model: fault universe
// enumeration, structural equivalence collapsing and fault-set
// bookkeeping.
//
// A fault is a line stuck at 0 or 1. Lines are node outputs (stems) and
// gate input pins (branches). The collapsed universe returned by Collapse
// is what the test generators and fault simulators target; the paper's
// "total faults" column corresponds to the uncollapsed universe size.
// CollapseWithMap additionally keeps the representative→class expansion
// map so detection results over the collapsed list can be reported over
// the full universe.
package fault

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Fault is a single stuck-at fault. Pin == -1 places the fault on the
// output of Node; Pin >= 0 places it on Node's Pin-th input connection.
type Fault struct {
	Node  int
	Pin   int
	Stuck logic.Value
}

// String renders the fault in the conventional "<line> s-a-<v>" form.
// It needs the circuit for node names.
func (f Fault) String(c *circuit.Circuit) string {
	if f.Pin < 0 {
		return fmt.Sprintf("%s s-a-%s", c.Nodes[f.Node].Name, f.Stuck)
	}
	return fmt.Sprintf("%s.in%d(%s) s-a-%s",
		c.Nodes[f.Node].Name, f.Pin, c.Nodes[c.Nodes[f.Node].Fanin[f.Pin]].Name, f.Stuck)
}

// Injection converts the fault into a kernel injection affecting the
// slots in mask (one word per batch word).
func (f Fault) Injection(mask []uint64) sim.BatchInjection {
	return sim.BatchInjection{Node: f.Node, Pin: f.Pin, Stuck: f.Stuck, Mask: mask}
}

// Universe enumerates the full (uncollapsed) single stuck-at fault list
// of c: two faults per node output and two per gate/DFF input pin.
// Constant nodes get no output faults (a stuck constant is meaningless
// for one of the two values and undetectable for the other).
func Universe(c *circuit.Circuit) []Fault {
	var out []Fault
	for n := range c.Nodes {
		kind := c.Nodes[n].Kind
		if kind == circuit.Const0 || kind == circuit.Const1 {
			continue
		}
		out = append(out,
			Fault{Node: n, Pin: -1, Stuck: logic.Zero},
			Fault{Node: n, Pin: -1, Stuck: logic.One})
		for p := range c.Nodes[n].Fanin {
			out = append(out,
				Fault{Node: n, Pin: p, Stuck: logic.Zero},
				Fault{Node: n, Pin: p, Stuck: logic.One})
		}
	}
	return out
}

// collapseKey identifies a fault during collapsing.
type collapseKey struct {
	node, pin int
	stuck     logic.Value
}

// findRoot chases parent links to the class representative.
func findRoot(parent map[collapseKey]collapseKey, k collapseKey) collapseKey {
	for {
		p, ok := parent[k]
		if !ok {
			return k
		}
		k = p
	}
}

// observedStem reports whether node n's output value is observed
// directly: primary outputs are observed every cycle, and flip-flop
// outputs are observed at scan-out (where an output-stuck fault forces
// the latched state itself). A branch fault on the single fanout of such
// a stem is NOT equivalent to the stem fault — the stem fault has the
// extra observation point — so branch→stem collapsing must skip it.
func observedStem(c *circuit.Circuit, n int) bool {
	if c.Nodes[n].Kind == circuit.DFF {
		return true
	}
	for _, po := range c.POs {
		if po == n {
			return true
		}
	}
	return false
}

// collapseParents computes the equivalence parent links for every fault
// of c, pointing from a fault toward the fault it is structurally
// equivalent to (toward POs). The classic rules:
//
//   - an input s-a-v of an AND (v=0), OR (v=1), NAND (v=0, inverted),
//     NOR (v=1, inverted), NOT or BUF collapses into the output fault;
//   - a branch fault on the single fanout of an unobserved stem
//     collapses into the stem fault. Stems that are POs or flip-flop
//     outputs carry their own observation point, so their branch faults
//     stay distinct (see observedStem).
//
// Collapsing proceeds from inputs toward outputs so chains (e.g. BUF
// runs) collapse transitively.
func collapseParents(c *circuit.Circuit) map[collapseKey]collapseKey {
	parent := make(map[collapseKey]collapseKey)
	find := func(k collapseKey) collapseKey { return findRoot(parent, k) }
	link := func(from, to collapseKey) { parent[from] = to }

	for n := range c.Nodes {
		nd := &c.Nodes[n]
		// Branch-to-stem collapse: if the driver of pin p has exactly one
		// consumer connection and no direct observation point of its own,
		// the pin fault is the stem fault.
		for p, d := range nd.Fanin {
			if fanoutConnections(c, d) == 1 && !observedStem(c, d) {
				link(collapseKey{n, p, logic.Zero}, collapseKey{d, -1, logic.Zero})
				link(collapseKey{n, p, logic.One}, collapseKey{d, -1, logic.One})
			}
		}
		// Gate-equivalence collapse of input faults into the output fault.
		switch nd.Kind {
		case circuit.And:
			for p := range nd.Fanin {
				link(find(collapseKey{n, p, logic.Zero}), collapseKey{n, -1, logic.Zero})
			}
		case circuit.Nand:
			for p := range nd.Fanin {
				link(find(collapseKey{n, p, logic.Zero}), collapseKey{n, -1, logic.One})
			}
		case circuit.Or:
			for p := range nd.Fanin {
				link(find(collapseKey{n, p, logic.One}), collapseKey{n, -1, logic.One})
			}
		case circuit.Nor:
			for p := range nd.Fanin {
				link(find(collapseKey{n, p, logic.One}), collapseKey{n, -1, logic.Zero})
			}
		case circuit.Not:
			link(find(collapseKey{n, 0, logic.Zero}), collapseKey{n, -1, logic.One})
			link(find(collapseKey{n, 0, logic.One}), collapseKey{n, -1, logic.Zero})
		case circuit.Buf:
			link(find(collapseKey{n, 0, logic.Zero}), collapseKey{n, -1, logic.Zero})
			link(find(collapseKey{n, 0, logic.One}), collapseKey{n, -1, logic.One})
		}
	}
	return parent
}

// Collapsed is the result of structural equivalence collapsing with the
// representative→class expansion map retained, so detection results over
// the collapsed list can be expanded back to full-universe counts.
type Collapsed struct {
	// Universe is the full uncollapsed fault list, in canonical
	// Universe(c) order.
	Universe []Fault
	// Reps holds one representative per equivalence class, in first-seen
	// order over Universe — identical to the list Collapse returns.
	Reps []Fault
	// RepOf maps each Universe index to its representative's Reps index.
	RepOf []int
	// Members maps each Reps index to the Universe indices of its class
	// (ascending; the representative itself is among them).
	Members [][]int
}

// CollapseWithMap computes the structural equivalence classes of c's
// fault universe and returns the collapsed representatives together with
// the expansion map. CollapseWithMap(c).Reps is element-for-element
// identical to Collapse(c).
func CollapseWithMap(c *circuit.Circuit) *Collapsed {
	parent := collapseParents(c)
	uni := Universe(c)
	cc := &Collapsed{
		Universe: uni,
		RepOf:    make([]int, len(uni)),
	}
	repIdx := make(map[collapseKey]int)
	for u, f := range uni {
		k := findRoot(parent, collapseKey{f.Node, f.Pin, f.Stuck})
		ri, ok := repIdx[k]
		if !ok {
			ri = len(cc.Reps)
			repIdx[k] = ri
			cc.Reps = append(cc.Reps, Fault{Node: k.node, Pin: k.pin, Stuck: k.stuck})
			cc.Members = append(cc.Members, nil)
		}
		cc.RepOf[u] = ri
		cc.Members[ri] = append(cc.Members[ri], u)
	}
	return cc
}

// Collapse reduces the full universe to one representative per
// structural equivalence class and returns the collapsed list. See
// collapseParents for the rules; use CollapseWithMap to keep the
// expansion map as well.
func Collapse(c *circuit.Circuit) []Fault {
	return CollapseWithMap(c).Reps
}

// ExpandSet expands a detection set over Reps indices into the
// equivalent detection set over Universe indices: every member of a
// detected representative's class is detected, by definition of
// structural equivalence.
func (cc *Collapsed) ExpandSet(reps *Set) *Set {
	out := NewSet(len(cc.Universe))
	reps.ForEach(func(ri int) {
		for _, u := range cc.Members[ri] {
			out.Add(u)
		}
	})
	return out
}

// ExpandCount returns the full-universe detection count implied by a
// detection set over Reps indices, without materializing the expansion.
func (cc *Collapsed) ExpandCount(reps *Set) int {
	total := 0
	reps.ForEach(func(ri int) { total += len(cc.Members[ri]) })
	return total
}

// Ratio returns len(Reps)/len(Universe), the collapse ratio.
func (cc *Collapsed) Ratio() float64 {
	if len(cc.Universe) == 0 {
		return 1
	}
	return float64(len(cc.Reps)) / float64(len(cc.Universe))
}

// fanoutConnections counts how many input pins read node n (a node
// feeding two pins of the same gate counts twice).
func fanoutConnections(c *circuit.Circuit, n int) int {
	total := 0
	for _, consumer := range c.Fanout(n) {
		for _, f := range c.Nodes[consumer].Fanin {
			if f == n {
				total++
			}
		}
	}
	return total
}
