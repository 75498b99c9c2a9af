package circuit

import (
	"strings"
	"testing"
)

func buildS27(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("s27")
	b.Input("G0")
	b.Input("G1")
	b.Input("G2")
	b.Input("G3")
	b.Output("G17")
	b.DFF("G5", "G10")
	b.DFF("G6", "G11")
	b.DFF("G7", "G13")
	b.Gate("G14", Not, "G0")
	b.Gate("G17", Not, "G11")
	b.Gate("G8", And, "G14", "G6")
	b.Gate("G15", Or, "G12", "G8")
	b.Gate("G16", Or, "G3", "G8")
	b.Gate("G9", Nand, "G16", "G15")
	b.Gate("G10", Nor, "G14", "G11")
	b.Gate("G11", Nor, "G5", "G9")
	b.Gate("G12", Nor, "G1", "G7")
	b.Gate("G13", Nor, "G2", "G12")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("build s27: %v", err)
	}
	return c
}

func TestS27Stats(t *testing.T) {
	c := buildS27(t)
	s := c.Stats()
	if s.PIs != 4 || s.POs != 1 || s.FFs != 3 || s.Gates != 10 {
		t.Errorf("s27 stats = %+v", s)
	}
	if !strings.Contains(s.String(), "s27") {
		t.Errorf("Stats.String() = %q", s.String())
	}
}

func TestKindString(t *testing.T) {
	if And.String() != "AND" || DFF.String() != "DFF" || Const1.String() != "CONST1" {
		t.Error("Kind.String mismatch")
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Error("out-of-range Kind.String should include the number")
	}
}

func TestEvalOrderRespectsDependencies(t *testing.T) {
	c := buildS27(t)
	pos := make(map[int]int)
	for i, n := range c.EvalOrder() {
		pos[n] = i
	}
	for _, n := range c.EvalOrder() {
		for _, f := range c.Nodes[n].Fanin {
			if c.IsSource(f) {
				continue
			}
			if pos[f] >= pos[n] {
				t.Errorf("node %s evaluated before its fanin %s", c.Nodes[n].Name, c.Nodes[f].Name)
			}
		}
	}
	if len(c.EvalOrder()) != c.NumGates() {
		t.Errorf("eval order has %d entries, want %d gates", len(c.EvalOrder()), c.NumGates())
	}
}

func TestLevelsMonotone(t *testing.T) {
	c := buildS27(t)
	for n := range c.Nodes {
		if c.IsSource(n) {
			if c.Level(n) != 0 {
				t.Errorf("source %s at level %d", c.Nodes[n].Name, c.Level(n))
			}
			continue
		}
		for _, f := range c.Nodes[n].Fanin {
			if c.Level(f) >= c.Level(n) {
				t.Errorf("level(%s)=%d not above fanin level(%s)=%d",
					c.Nodes[n].Name, c.Level(n), c.Nodes[f].Name, c.Level(f))
			}
		}
	}
	if c.Depth() < 2 {
		t.Errorf("s27 depth = %d, want >= 2", c.Depth())
	}
}

func TestFanoutIsInverseOfFanin(t *testing.T) {
	c := buildS27(t)
	for n := range c.Nodes {
		for _, f := range c.Nodes[n].Fanin {
			found := false
			for _, s := range c.Fanout(f) {
				if s == n {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("fanout of %s misses consumer %s", c.Nodes[f].Name, c.Nodes[n].Name)
			}
		}
	}
}

func TestNodeByName(t *testing.T) {
	c := buildS27(t)
	idx, ok := c.NodeByName("G11")
	if !ok || c.Nodes[idx].Name != "G11" {
		t.Error("NodeByName(G11) failed")
	}
	if _, ok := c.NodeByName("nope"); ok {
		t.Error("NodeByName should fail for unknown names")
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("duplicate definition", func(t *testing.T) {
		b := NewBuilder("bad")
		b.Input("a")
		b.Input("a")
		if _, err := b.Build(); err == nil {
			t.Error("duplicate signal should fail")
		}
	})
	t.Run("undefined fanin", func(t *testing.T) {
		b := NewBuilder("bad")
		b.Input("a")
		b.Gate("g", And, "a", "ghost")
		if _, err := b.Build(); err == nil {
			t.Error("undefined fanin should fail")
		}
	})
	t.Run("undefined output", func(t *testing.T) {
		b := NewBuilder("bad")
		b.Input("a")
		b.Output("ghost")
		if _, err := b.Build(); err == nil {
			t.Error("undefined output should fail")
		}
	})
	t.Run("non-gate kind via Gate", func(t *testing.T) {
		b := NewBuilder("bad")
		b.Gate("g", DFF, "g")
		if _, err := b.Build(); err == nil {
			t.Error("Gate(DFF) should fail")
		}
	})
	t.Run("combinational cycle", func(t *testing.T) {
		b := NewBuilder("bad")
		b.Input("a")
		b.Gate("g1", And, "a", "g2")
		b.Gate("g2", And, "a", "g1")
		b.Output("g1")
		if _, err := b.Build(); err == nil {
			t.Error("combinational cycle should fail")
		}
	})
	t.Run("sequential cycle is fine", func(t *testing.T) {
		b := NewBuilder("ok")
		b.Input("a")
		b.DFF("q", "d")
		b.Gate("d", And, "a", "q")
		b.Output("q")
		if _, err := b.Build(); err != nil {
			t.Errorf("feedback through a DFF must be legal: %v", err)
		}
	})
	t.Run("wrong fanin arity", func(t *testing.T) {
		b := NewBuilder("bad")
		b.Input("a")
		b.Input("b")
		b.Gate("g", Not, "a", "b")
		if _, err := b.Build(); err == nil {
			t.Error("NOT with two fanins should fail")
		}
	})
}

func TestConstNodes(t *testing.T) {
	b := NewBuilder("consts")
	b.Const("zero", false)
	b.Const("one", true)
	b.Gate("g", And, "zero", "one")
	b.Output("g")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	zi, _ := c.NodeByName("zero")
	oi, _ := c.NodeByName("one")
	if c.Nodes[zi].Kind != Const0 || c.Nodes[oi].Kind != Const1 {
		t.Error("const kinds wrong")
	}
	if !c.IsSource(zi) || !c.IsSource(oi) {
		t.Error("constants must be sources")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on invalid circuit")
		}
	}()
	b := NewBuilder("bad")
	b.Input("a")
	b.Input("a")
	b.MustBuild()
}

func TestKindFaninBounds(t *testing.T) {
	if Input.MaxFanin() != 0 || Input.MinFanin() != 0 {
		t.Error("Input arity bounds wrong")
	}
	if And.MaxFanin() != -1 {
		t.Error("And should allow unbounded fanin")
	}
	if DFF.MinFanin() != 1 || DFF.MaxFanin() != 1 {
		t.Error("DFF arity bounds wrong")
	}
}
