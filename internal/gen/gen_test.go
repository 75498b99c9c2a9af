package gen

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/esim"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
)

func small() Params {
	return Params{Name: "t", Seed: 42, PIs: 4, POs: 3, FFs: 6, Gates: 60}
}

func TestGenerateBasicShape(t *testing.T) {
	c, err := Generate(small())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s := c.Stats()
	if s.PIs != 4 || s.FFs != 6 {
		t.Errorf("stats = %+v", s)
	}
	// POs may gain one observer output; gates may gain observer XORs.
	if s.POs < 3 || s.POs > 4 {
		t.Errorf("POs = %d, want 3 or 4", s.POs)
	}
	if s.Gates < 60 {
		t.Errorf("gates = %d, want >= 60", s.Gates)
	}
	if s.Depth < 3 {
		t.Errorf("depth = %d, too shallow to be interesting", s.Depth)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(small())
	b := MustGenerate(small())
	if bench.WriteString(a) != bench.WriteString(b) {
		t.Error("same params must generate identical circuits")
	}
	p2 := small()
	p2.Seed = 43
	c := MustGenerate(p2)
	if bench.WriteString(a) == bench.WriteString(c) {
		t.Error("different seeds should generate different circuits")
	}
}

func TestGenerateNoDanglingGates(t *testing.T) {
	c := MustGenerate(small())
	poSet := make(map[int]bool)
	for _, p := range c.POs {
		poSet[p] = true
	}
	for n := range c.Nodes {
		if !c.Nodes[n].Kind.IsGate() {
			continue
		}
		if len(c.Fanout(n)) == 0 && !poSet[n] {
			t.Errorf("gate %s is unobservable (no fanout, not a PO)", c.Nodes[n].Name)
		}
	}
}

func TestGenerateRoundTripsThroughBench(t *testing.T) {
	c := MustGenerate(small())
	back, err := bench.ParseString(c.Name, bench.WriteString(c))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.NumNodes() != c.NumNodes() {
		t.Error("bench round trip changed the circuit")
	}
}

func TestGenerateValidation(t *testing.T) {
	cases := []Params{
		{Name: "", PIs: 1, POs: 1, Gates: 2},
		{Name: "x", PIs: 0, POs: 1, Gates: 2},
		{Name: "x", PIs: 1, POs: 0, Gates: 2},
		{Name: "x", PIs: 1, POs: 1, FFs: -1, Gates: 2},
		{Name: "x", PIs: 1, POs: 5, Gates: 2},
		{Name: "x", PIs: 1, POs: 1, Gates: 2, MaxFanin: 1},
	}
	for i, p := range cases {
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d (%+v): expected error", i, p)
		}
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGenerate should panic on bad params")
		}
	}()
	MustGenerate(Params{})
}

func TestGeneratedCircuitIsTestable(t *testing.T) {
	// The generator's purpose: circuits whose faults are mostly
	// detectable by random scan tests. Require >50% random-test coverage
	// on a mid-size instance.
	c := MustGenerate(Params{Name: "t", Seed: 7, PIs: 6, POs: 4, FFs: 10, Gates: 120})
	faults := fault.Collapse(c)
	s := fsim.New(c, faults)
	r := rand.New(rand.NewSource(1))
	detected := fault.NewSet(len(faults))
	for trial := 0; trial < 40; trial++ {
		si := randVec(r, c.NumFFs())
		seq := logic.Sequence{randVec(r, c.NumPIs()), randVec(r, c.NumPIs())}
		detected.UnionWith(s.DetectTest(si, seq, nil))
	}
	cov := fsim.Coverage(detected, len(faults))
	if cov < 0.5 {
		t.Errorf("random scan coverage = %.2f, want >= 0.5 (%d/%d)", cov, detected.Count(), len(faults))
	}
}

func TestGeneratedStateIsControllable(t *testing.T) {
	// Random input sequences from the all-zero state should initialize
	// flip-flop values and move the state around: at least half the FFs
	// must change value at some point over a random run.
	c := MustGenerate(Params{Name: "t", Seed: 7, PIs: 6, POs: 4, FFs: 10, Gates: 120})
	r := rand.New(rand.NewSource(2))
	seq := make(logic.Sequence, 50)
	for i := range seq {
		seq[i] = randVec(r, c.NumPIs())
	}
	changed := make([]bool, c.NumFFs())
	e := esim.New(c)
	e.SetStateVector(logic.NewVector(c.NumFFs(), logic.Zero))
	for _, v := range seq {
		e.Step(v)
		for i, ff := range c.DFFs {
			if e.Val(ff) == logic.One {
				changed[i] = true
			}
		}
	}
	n := 0
	for _, ch := range changed {
		if ch {
			n++
		}
	}
	if n < c.NumFFs()/2 {
		t.Errorf("only %d/%d FFs ever left 0; state space too dead", n, c.NumFFs())
	}
}

func TestRoster(t *testing.T) {
	entries := Roster()
	if len(entries) != 19 {
		t.Fatalf("roster has %d entries, want 19", len(entries))
	}
	names := RosterNames()
	if names[0] != "s298" || names[len(names)-1] != "b11" {
		t.Errorf("roster order wrong: %v", names)
	}
	for _, e := range entries {
		if e.Scale == 1 && e.Params.FFs != e.PaperFFs {
			t.Errorf("%s: unscaled entry FF=%d != paper %d", e.Params.Name, e.Params.FFs, e.PaperFFs)
		}
		if e.Scale > 1 && e.Params.FFs >= e.PaperFFs {
			t.Errorf("%s: scaled entry should shrink FFs", e.Params.Name)
		}
	}
}

func TestRosterCircuitGenerates(t *testing.T) {
	c, ok := RosterCircuit("s298")
	if !ok {
		t.Fatal("s298 missing from roster")
	}
	if c.NumFFs() != 14 {
		t.Errorf("s298 substitute FFs = %d, want 14", c.NumFFs())
	}
	if _, ok := RosterCircuit("nonesuch"); ok {
		t.Error("unknown roster name should return false")
	}
}

// TestRosterAllGeneratable builds every roster circuit (including the
// large ones) and validates structural sanity.
func TestRosterAllGeneratable(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full roster generation in -short mode")
	}
	for _, e := range Roster() {
		c, err := Generate(e.Params)
		if err != nil {
			t.Errorf("%s: %v", e.Params.Name, err)
			continue
		}
		if c.NumFFs() != e.Params.FFs {
			t.Errorf("%s: FF count %d != %d", e.Params.Name, c.NumFFs(), e.Params.FFs)
		}
	}
}

func TestXLRoster(t *testing.T) {
	entries := XLRoster()
	if len(entries) != 2 {
		t.Fatalf("XL roster has %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		if e.Params.FFs != e.PaperFFs || e.Scale != 1 {
			t.Errorf("%s: XL entry must be true scale (FFs=%d paper=%d scale=%d)",
				e.Params.Name, e.Params.FFs, e.PaperFFs, e.Scale)
		}
		if _, ok := FindEntry(e.Params.Name); !ok {
			t.Errorf("FindEntry misses XL entry %s", e.Params.Name)
		}
	}
	// XL names must not shadow or join the paper roster.
	for _, n := range RosterNames() {
		for _, e := range entries {
			if e.Params.Name == n {
				t.Errorf("XL entry %s collides with the paper roster", n)
			}
		}
	}
}

// TestXLRosterGeneratable builds the ISCAS-scale substitutes and checks
// they really carry benchmark-scale state and logic.
func TestXLRosterGeneratable(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping ISCAS-scale generation in -short mode")
	}
	for _, e := range XLRoster() {
		c, err := Generate(e.Params)
		if err != nil {
			t.Errorf("%s: %v", e.Params.Name, err)
			continue
		}
		if c.NumFFs() != e.Params.FFs {
			t.Errorf("%s: FF count %d != %d", e.Params.Name, c.NumFFs(), e.Params.FFs)
		}
	}
	big, _ := RosterCircuit("s35932xl")
	if big.NumFFs() != 1728 || big.Stats().Gates < 16000 {
		t.Errorf("s35932xl not ISCAS-scale: %v", big.Stats())
	}
}

func randVec(r *rand.Rand, n int) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		v[i] = logic.Value(r.Intn(2))
	}
	return v
}
