package fsim

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/esim"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/samples"
	"repro/internal/sim"
)

func vec(s string) logic.Vector {
	v, err := logic.ParseVector(s)
	if err != nil {
		panic(err)
	}
	return v
}

// naiveDetect is an independent single-fault reference simulator: it runs
// the good machine and one faulty machine separately on the event-driven
// engine and applies the same detection criteria as the parallel engine.
func naiveDetect(c *circuit.Circuit, f fault.Fault, init logic.Vector, seq logic.Sequence, scanOut bool) bool {
	good, bad := esim.New(c), esim.New(c)
	bad.InjectFault(f.Node, f.Pin, f.Stuck)
	if init == nil {
		init = logic.NewVector(c.NumFFs(), logic.X)
	}
	good.SetStateVector(init)
	bad.SetStateVector(init)
	for _, v := range seq {
		gpo, fpo := good.Step(v), bad.Step(v)
		for i := range gpo {
			if gpo[i].IsBinary() && fpo[i].IsBinary() && gpo[i] != fpo[i] {
				return true
			}
		}
	}
	if scanOut && len(seq) > 0 {
		for _, ff := range c.DFFs {
			gv, fv := good.Val(ff), bad.Val(ff)
			if gv.IsBinary() && fv.IsBinary() && gv != fv {
				return true
			}
		}
	}
	return false
}

func randomSeq(r *rand.Rand, n, l int) logic.Sequence {
	seq := make(logic.Sequence, l)
	for u := range seq {
		v := make(logic.Vector, n)
		for i := range v {
			v[i] = logic.Value(r.Intn(2))
		}
		seq[u] = v
	}
	return seq
}

func TestDetectMatchesNaiveS27(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	s := New(c, faults)
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		seq := randomSeq(r, c.NumPIs(), 8)
		var init logic.Vector
		scanOut := trial%2 == 0
		if trial%3 != 0 {
			init = make(logic.Vector, c.NumFFs())
			for i := range init {
				init[i] = logic.Value(r.Intn(2))
			}
		}
		got := s.Detect(seq, Options{Init: init, ScanOut: scanOut})
		for fi, f := range faults {
			want := naiveDetect(c, f, init, seq, scanOut)
			if got.Has(fi) != want {
				t.Errorf("trial %d fault %s: parallel=%v naive=%v (init=%v scanOut=%v)",
					trial, f.String(c), got.Has(fi), want, init, scanOut)
			}
		}
	}
}

func TestDetectToggleHandCases(t *testing.T) {
	c := samples.Toggle()
	eni, _ := c.NodeByName("en")
	faults := []fault.Fault{{Node: eni, Pin: -1, Stuck: logic.Zero}}
	s := New(c, faults)

	// SI=0, T=(1): PO shows pre-clock state (0 in both machines), so the
	// fault is caught only by scan-out.
	if s.Detect(logic.Sequence{vec("1")}, Options{Init: vec("0")}).Has(0) {
		t.Error("en s-a-0 must not be PO-detected by a single vector")
	}
	if !s.Detect(logic.Sequence{vec("1")}, Options{Init: vec("0"), ScanOut: true}).Has(0) {
		t.Error("en s-a-0 must be detected by scan-out after one toggle")
	}
	// SI=0, T=(1,0): at u=1 the good machine outputs 1, faulty 0.
	if !s.Detect(logic.Sequence{vec("1"), vec("0")}, Options{Init: vec("0")}).Has(0) {
		t.Error("en s-a-0 must be PO-detected at time 1")
	}
}

func TestDetectWithoutScanStartsUnknown(t *testing.T) {
	c := samples.Toggle()
	qi, _ := c.NodeByName("q")
	faults := []fault.Fault{{Node: qi, Pin: -1, Stuck: logic.One}}
	s := New(c, faults)
	// Without scan-in the good machine state is X: no definite
	// difference can appear, whatever the sequence.
	got := s.Detect(randomSeq(rand.New(rand.NewSource(1)), 1, 10), Options{ScanOut: true})
	if got.Has(0) {
		t.Error("q s-a-1 undetectable from all-X start in toggle")
	}
	// With scan-in of 0 it is immediately detectable at the output.
	got = s.Detect(logic.Sequence{vec("0")}, Options{Init: vec("0")})
	if !got.Has(0) {
		t.Error("q s-a-1 must be detected with scan")
	}
}

func TestDetectTargetsSubset(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	s := New(c, faults)
	seq := randomSeq(rand.New(rand.NewSource(5)), c.NumPIs(), 10)
	full := s.Detect(seq, Options{Init: vec("000"), ScanOut: true})
	if full.Count() == 0 {
		t.Fatal("expected some detections")
	}
	// Restricting targets must return exactly the intersection.
	some := fault.NewSet(len(faults))
	for i := 0; i < len(faults); i += 2 {
		some.Add(i)
	}
	part := s.Detect(seq, Options{Init: vec("000"), ScanOut: true, Targets: some})
	want := full.Clone()
	want.IntersectWith(some)
	if !part.Equal(want) {
		t.Errorf("targeted detect = %v, want %v", part.Indices(), want.Indices())
	}
}

func TestDetectManyFaultsMultipleBatches(t *testing.T) {
	// ShiftReg(40) has 318 collapsed faults, more than one wide pass holds.
	c := samples.ShiftReg(40)
	faults := fault.Collapse(c)
	if len(faults) <= 64*sim.WideWidth-1 {
		t.Fatalf("need more than one wide pass of faults, have %d", len(faults))
	}
	s := New(c, faults)
	r := rand.New(rand.NewSource(9))
	seq := randomSeq(r, c.NumPIs(), 30)
	init := make(logic.Vector, c.NumFFs())
	for i := range init {
		init[i] = logic.Value(r.Intn(2))
	}
	got := s.Detect(seq, Options{Init: init, ScanOut: true})
	for fi, f := range faults {
		want := naiveDetect(c, f, init, seq, true)
		if got.Has(fi) != want {
			t.Errorf("fault %s: parallel=%v naive=%v", f.String(c), got.Has(fi), want)
		}
	}
}

func TestAllDetected(t *testing.T) {
	c := samples.Toggle()
	eni, _ := c.NodeByName("en")
	faults := []fault.Fault{{Node: eni, Pin: -1, Stuck: logic.Zero}}
	s := New(c, faults)
	must := fault.FromIndices(1, []int{0})
	opt := Options{Init: vec("0"), ScanOut: true}
	if _, ok := s.RecordMustInto(nil, logic.Sequence{vec("1")}, opt, must); !ok {
		t.Error("scan test should detect the en fault")
	}
	if _, ok := s.RecordMustInto(nil, logic.Sequence{vec("0")}, opt, must); ok {
		t.Error("en=0 vector cannot detect en s-a-0")
	}
}

func TestDetectEmptySequence(t *testing.T) {
	c := samples.S27()
	s := New(c, fault.Collapse(c))
	got := s.Detect(nil, Options{Init: vec("000"), ScanOut: true})
	if got.Count() != 0 {
		t.Error("empty sequence detects nothing (no clock, no capture)")
	}
}

func TestCoverage(t *testing.T) {
	set := fault.FromIndices(10, []int{0, 1, 2})
	if got := Coverage(set, 10); got != 0.3 {
		t.Errorf("Coverage = %v, want 0.3", got)
	}
	if Coverage(set, 0) != 0 {
		t.Error("Coverage with empty universe should be 0")
	}
}
