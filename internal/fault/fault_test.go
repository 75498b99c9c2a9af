package fault

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/samples"
)

func TestUniverseCounts(t *testing.T) {
	// comb4: nodes a,b,sel,c (PIs), nsel(NOT,1 in), t0(AND,2), t1(AND,2),
	// y(OR,2), p(XOR,2). Outputs: 9 nodes * 2 = 18; pins: 1+2+2+2+2 = 9 * 2 = 18.
	c := samples.Comb4()
	u := Universe(c)
	if len(u) != 36 {
		t.Errorf("comb4 universe = %d, want 36", len(u))
	}
}

func TestUniverseSkipsConstants(t *testing.T) {
	b := circuit.NewBuilder("k")
	b.Input("a")
	b.Const("z", false)
	b.Gate("y", circuit.And, "a", "z")
	b.Output("y")
	c := b.MustBuild()
	for _, f := range Universe(c) {
		if f.Pin == -1 && (c.Nodes[f.Node].Kind == circuit.Const0 || c.Nodes[f.Node].Kind == circuit.Const1) {
			t.Errorf("universe contains constant stem fault %v", f.String(c))
		}
	}
}

func TestCollapseShrinksUniverse(t *testing.T) {
	for _, ckt := range []*circuit.Circuit{samples.Comb4(), samples.S27(), samples.ShiftReg(5)} {
		u := Universe(ckt)
		col := Collapse(ckt)
		if len(col) >= len(u) {
			t.Errorf("%s: collapse %d not smaller than universe %d", ckt.Name, len(col), len(u))
		}
		if len(col) == 0 {
			t.Errorf("%s: collapse returned empty list", ckt.Name)
		}
	}
}

func TestCollapseNoDuplicates(t *testing.T) {
	c := samples.S27()
	col := Collapse(c)
	seen := make(map[Fault]bool)
	for _, f := range col {
		if seen[f] {
			t.Errorf("duplicate collapsed fault %v", f.String(c))
		}
		seen[f] = true
	}
}

func TestCollapseAndChain(t *testing.T) {
	// a fanout-free AND chain: in0..in2 -> g1=AND(in0,in1), g2=AND(g1,in2).
	// All input s-a-0 faults collapse into g2 output s-a-0: the class
	// {in0/0, in1/0, g1.pins/0, g1/0, in2/0, g2.pins/0, g2/0} is one fault.
	b := circuit.NewBuilder("chain")
	b.Input("in0")
	b.Input("in1")
	b.Input("in2")
	b.Gate("g1", circuit.And, "in0", "in1")
	b.Gate("g2", circuit.And, "g1", "in2")
	b.Output("g2")
	c := b.MustBuild()
	col := Collapse(c)
	g2, _ := c.NodeByName("g2")
	sa0 := 0
	for _, f := range col {
		if f.Stuck == logic.Zero {
			sa0++
			if f.Node != g2 || f.Pin != -1 {
				t.Errorf("unexpected surviving s-a-0 fault %v", f.String(c))
			}
		}
	}
	if sa0 != 1 {
		t.Errorf("s-a-0 class count = %d, want 1", sa0)
	}
	// s-a-1 faults do NOT collapse across AND gates: in0/1, in1/1, in2/1,
	// g1/1, g2/1 remain distinct (branch faults fold into stems).
	sa1 := 0
	for _, f := range col {
		if f.Stuck == logic.One {
			sa1++
		}
	}
	if sa1 != 5 {
		t.Errorf("s-a-1 class count = %d, want 5", sa1)
	}
}

func TestCollapseInverterChain(t *testing.T) {
	b := circuit.NewBuilder("invchain")
	b.Input("a")
	b.Gate("n1", circuit.Not, "a")
	b.Gate("n2", circuit.Not, "n1")
	b.Output("n2")
	c := b.MustBuild()
	col := Collapse(c)
	// Everything collapses into n2's two output faults.
	if len(col) != 2 {
		var names []string
		for _, f := range col {
			names = append(names, f.String(c))
		}
		t.Errorf("inverter chain collapsed to %d faults (%s), want 2", len(col), strings.Join(names, "; "))
	}
}

func TestCollapseKeepsFanoutBranches(t *testing.T) {
	// A stem with fanout 2: branch faults must survive collapsing
	// (they are not equivalent to the stem fault in general).
	b := circuit.NewBuilder("fan")
	b.Input("a")
	b.Input("b")
	b.Input("c")
	b.Gate("s", circuit.Buf, "a")
	b.Gate("g1", circuit.And, "s", "b")
	b.Gate("g2", circuit.Or, "s", "c")
	b.Output("g1")
	b.Output("g2")
	ckt := b.MustBuild()
	col := Collapse(ckt)
	g1, _ := ckt.NodeByName("g1")
	g2, _ := ckt.NodeByName("g2")
	foundG1Pin, foundG2Pin := false, false
	for _, f := range col {
		if f.Node == g1 && f.Pin == 0 && f.Stuck == logic.One {
			foundG1Pin = true // AND input s-a-1 survives
		}
		if f.Node == g2 && f.Pin == 0 && f.Stuck == logic.Zero {
			foundG2Pin = true // OR input s-a-0 survives
		}
	}
	if !foundG1Pin || !foundG2Pin {
		t.Errorf("fanout branch faults missing: g1pin=%v g2pin=%v", foundG1Pin, foundG2Pin)
	}
}

func TestFaultString(t *testing.T) {
	c := samples.Comb4()
	yi, _ := c.NodeByName("y")
	st := Fault{Node: yi, Pin: -1, Stuck: logic.One}.String(c)
	if st != "y s-a-1" {
		t.Errorf("stem string = %q", st)
	}
	br := Fault{Node: yi, Pin: 0, Stuck: logic.Zero}.String(c)
	if !strings.Contains(br, "y.in0") || !strings.Contains(br, "s-a-0") {
		t.Errorf("branch string = %q", br)
	}
}

func TestInjectionConversion(t *testing.T) {
	f := Fault{Node: 3, Pin: 1, Stuck: logic.One}
	inj := f.Injection([]uint64{0xFF, 1})
	if inj.Node != 3 || inj.Pin != 1 || inj.Stuck != logic.One || len(inj.Mask) != 2 || inj.Mask[0] != 0xFF || inj.Mask[1] != 1 {
		t.Errorf("injection = %+v", inj)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(130)
	if s.Len() != 130 || s.Count() != 0 {
		t.Fatal("fresh set not empty")
	}
	for _, i := range []int{0, 63, 64, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Errorf("Has(%d) after Add = false", i)
		}
	}
	if s.Count() != 4 {
		t.Errorf("Count = %d, want 4", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 3 {
		t.Error("Remove failed")
	}
	if got := s.Indices(); len(got) != 3 || got[0] != 0 || got[1] != 63 || got[2] != 129 {
		t.Errorf("Indices = %v", got)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(100, []int{1, 2, 3, 70})
	b := FromIndices(100, []int{3, 70, 99})
	u := a.Clone()
	u.UnionWith(b)
	if u.Count() != 5 {
		t.Errorf("union count = %d, want 5", u.Count())
	}
	if !u.ContainsAll(a) || !u.ContainsAll(b) {
		t.Error("union must contain both operands")
	}
	d := a.Clone()
	d.SubtractWith(b)
	if d.Count() != 2 || d.Has(3) || d.Has(70) {
		t.Errorf("difference wrong: %v", d.Indices())
	}
	i := a.Clone()
	i.IntersectWith(b)
	if i.Count() != 2 || !i.Has(3) || !i.Has(70) {
		t.Errorf("intersection wrong: %v", i.Indices())
	}
	if a.ContainsAll(b) {
		t.Error("a does not contain b")
	}
	if !a.Equal(FromIndices(100, []int{1, 2, 3, 70})) {
		t.Error("Equal false negative")
	}
	if a.Equal(b) {
		t.Error("Equal false positive")
	}
	if a.Equal(FromIndices(10, []int{1})) {
		t.Error("Equal must compare universe sizes")
	}
	a.Clear()
	if a.Count() != 0 {
		t.Error("Clear failed")
	}
}

func TestSetForEachOrder(t *testing.T) {
	s := FromIndices(200, []int{199, 5, 64, 0})
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	want := []int{0, 5, 64, 199}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order = %v, want %v", got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(10, []int{1})
	b := a.Clone()
	b.Add(2)
	if a.Has(2) {
		t.Error("Clone aliases storage")
	}
}
