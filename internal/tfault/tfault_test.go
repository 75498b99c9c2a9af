package tfault

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/esim"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/samples"
	"repro/internal/scan"
	"repro/internal/sim"
)

func vec(s string) logic.Vector {
	v, err := logic.ParseVector(s)
	if err != nil {
		panic(err)
	}
	return v
}

func TestUniverse(t *testing.T) {
	c := samples.Comb4()
	u := Universe(c)
	// 9 non-constant nodes * 2 transitions.
	if len(u) != 18 {
		t.Errorf("universe = %d, want 18", len(u))
	}
	rise, fall := 0, 0
	for _, f := range u {
		if f.Rise {
			rise++
		} else {
			fall++
		}
	}
	if rise != fall {
		t.Error("universe must pair rise/fall")
	}
}

func TestFaultString(t *testing.T) {
	c := samples.Comb4()
	yi, _ := c.NodeByName("y")
	if got := (Fault{Node: yi, Rise: true}).String(c); got != "y slow-to-rise" {
		t.Errorf("String = %q", got)
	}
	if got := (Fault{Node: yi}).String(c); got != "y slow-to-fall" {
		t.Errorf("String = %q", got)
	}
}

func TestLengthOneTestDetectsNothing(t *testing.T) {
	c := samples.S27()
	s := New(c, Universe(c))
	got := s.DetectTest(vec("000"), logic.Sequence{vec("1111")}, nil)
	if got.Count() != 0 {
		t.Errorf("length-1 test detected %d transition faults, want 0", got.Count())
	}
}

func TestShiftRegHandCase(t *testing.T) {
	// ShiftReg(2): q0 <- si, q1 <- q0, par = q0 XOR q1.
	// SI=00, seq = (1,0): q0 rises between cycle 0 and cycle 1.
	// Slow-to-rise at q0 holds q0=0 in cycle 1: good par=1, faulty par=0
	// -> detected at the PO.
	c := samples.ShiftReg(2)
	q0, _ := c.NodeByName("q0")
	faults := []Fault{{Node: q0, Rise: true}, {Node: q0, Rise: false}}
	s := New(c, faults)
	got := s.DetectTest(vec("00"), logic.Sequence{vec("1"), vec("0")}, nil)
	if !got.Has(0) {
		t.Error("slow-to-rise q0 must be detected")
	}
	// No falling transition on q0 in this pair (0 -> 1): slow-to-fall
	// is not even launched.
	if got.Has(1) {
		t.Error("slow-to-fall q0 must not be detected without a falling launch")
	}
}

func TestMatchesNaiveReferenceS27(t *testing.T) {
	c := samples.S27()
	faults := Universe(c)
	s := New(c, faults)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		si := randVector(r, c.NumFFs(), 0)
		seq := randSequence(r, c.NumPIs(), 6, 0)
		got := s.DetectTest(si, seq, nil)
		want := naiveDetect(c, nil, faults, si, seq)
		for fi, f := range faults {
			if got.Has(fi) != want.Has(fi) {
				t.Errorf("trial %d fault %s: got %v want %v",
					trial, f.String(c), got.Has(fi), want.Has(fi))
			}
		}
	}
}

// randVector draws n values, each X with probability 1/xEvery (never
// when xEvery is 0) and otherwise a uniform binary value.
func randVector(r *rand.Rand, n, xEvery int) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		v[i] = logic.Value(r.Intn(2))
		if xEvery > 0 && r.Intn(xEvery) == 0 {
			v[i] = logic.X
		}
	}
	return v
}

func randSequence(r *rand.Rand, npi, n, xEvery int) logic.Sequence {
	seq := make(logic.Sequence, n)
	for u := range seq {
		seq[u] = randVector(r, npi, xEvery)
	}
	return seq
}

// goodRun simulates the scan test (si, seq) on the event-driven good
// machine and returns every node's value per cycle plus the flip-flop
// state each cycle starts from. ch selects the scanned flip-flops (nil =
// full scan): si is indexed by chain position and unscanned flip-flops
// start at X.
func goodRun(c *circuit.Circuit, ch *scan.Chain, si logic.Vector, seq logic.Sequence) (vals, states [][]logic.Value) {
	good := esim.New(c)
	good.SetStateVector(scan.OrFull(ch, c.NumFFs()).State(si))
	vals = make([][]logic.Value, len(seq))
	states = make([][]logic.Value, len(seq))
	for u, v := range seq {
		states[u] = make([]logic.Value, c.NumFFs())
		for i, ff := range c.DFFs {
			states[u][i] = good.Val(ff)
		}
		good.SetPIVector(v)
		good.Settle()
		vals[u] = make([]logic.Value, c.NumNodes())
		for n := range vals[u] {
			vals[u][n] = good.Val(n)
		}
		good.ClockFF()
	}
	return vals, states
}

// launches reports whether the good run launches f's transition into
// cycle u.
func launches(vals [][]logic.Value, f Fault, u int) bool {
	pv, cv := vals[u-1][f.Node], vals[u][f.Node]
	return pv.IsBinary() && cv.IsBinary() && pv != cv && (cv == logic.One) == f.Rise
}

// naiveDetect is the independent reference: launch from an event-driven
// good simulation, then capture one fault at a time on a fresh
// event-driven engine, re-evaluating the launch cycle from the good
// pre-cycle state with the node stuck at its old value. A scan-out
// after the final cycle observes the chain's flip-flops (nil = all).
func naiveDetect(c *circuit.Circuit, ch *scan.Chain, faults []Fault, si logic.Vector, seq logic.Sequence) *fault.Set {
	vals, states := goodRun(c, ch, si, seq)
	observed := scan.OrFull(ch, c.NumFFs()).FFs
	differs := func(g, b logic.Value) bool { return g.IsBinary() && b.IsBinary() && g != b }
	detected := fault.NewSet(len(faults))
	for fi, f := range faults {
		for u := 1; u < len(seq) && !detected.Has(fi); u++ {
			if !launches(vals, f, u) {
				continue
			}
			bad := esim.New(c)
			bad.InjectFault(f.Node, -1, vals[u-1][f.Node])
			bad.SetStateVector(states[u])
			bad.SetPIVector(seq[u])
			bad.Settle()
			for i, po := range c.POs {
				if differs(vals[u][po], bad.PO(i)) {
					detected.Add(fi)
				}
			}
			if u == len(seq)-1 {
				for _, i := range observed {
					d := c.Nodes[c.DFFs[i]].Fanin[0]
					if differs(vals[u][d], bad.Val(d)) {
						detected.Add(fi)
					}
				}
			}
		}
	}
	return detected
}

// captureArm is one way of choosing the kind of every capture frame:
// the event limit's choice, the sweep, or event frames throughout.
type captureArm struct {
	name  string
	force func(*Simulator)
}

var captureArms = []captureArm{
	{"limit", func(*Simulator) {}},
	{"sweep", ForceSweep},
	{"events", ForceEvents},
}

// TestTransitionRoster checks the kernel capture frames against the
// reference over the roster, full and partial scan, with X in scan-in
// states and PI vectors, whichever kind each capture frame runs as:
// DetectTest per test (all faults and a random target subset) and
// DetectSet against the union of the per-test sets. Both frame widths
// must run: some first capture cycle launches more faults than one
// wide frame holds, and some test's last capture frame runs at one
// word.
func TestTransitionRoster(t *testing.T) {
	const frame = 64 * sim.WideWidth // launched faults per full frame
	multi := false                   // some first capture cycle filled more than one frame
	narrow := false                  // some capture frame ran at one word
	for _, e := range gen.Roster() {
		c := gen.MustGenerate(e.Params)
		if c.NumGates() > 3000 {
			continue
		}
		faults := Universe(c)
		for _, ch := range []*scan.Chain{nil, oddChain(c.NumFFs())} {
			nsv, chain := c.NumFFs(), "full"
			if ch != nil {
				nsv, chain = len(ch.FFs), "partial"
			}
			r := rand.New(rand.NewSource(e.Params.Seed))
			ts := scan.NewSet(
				scan.Test{SI: randVector(r, nsv, 0), Seq: randSequence(r, c.NumPIs(), 5, 0)},
				scan.Test{SI: randVector(r, nsv, 8), Seq: randSequence(r, c.NumPIs(), 1, 8)},
				scan.Test{SI: randVector(r, nsv, 8), Seq: randSequence(r, c.NumPIs(), 7, 8)},
			)
			union := fault.NewSet(len(faults))
			wants := make([]*fault.Set, len(ts.Tests))
			targets := make([]*fault.Set, len(ts.Tests))
			for ti, tst := range ts.Tests {
				wants[ti] = naiveDetect(c, ch, faults, tst.SI, tst.Seq)
				union.UnionWith(wants[ti])
				targets[ti] = fault.NewSet(len(faults))
				for fi := range faults {
					if r.Intn(2) == 0 {
						targets[ti].Add(fi)
					}
				}
				if len(tst.Seq) > 1 {
					vals, _ := goodRun(c, ch, tst.SI, tst.Seq)
					n := 0
					for _, f := range faults {
						if launches(vals, f, 1) {
							n++
						}
					}
					multi = multi || n > frame
				}
			}
			for _, arm := range captureArms {
				s := NewChain(c, faults, ch)
				arm.force(s)
				for ti, tst := range ts.Tests {
					want := wants[ti]
					if got := s.DetectTest(tst.SI, tst.Seq, nil); !got.Equal(want) {
						t.Fatalf("%s/%s/%s test %d: kernel detects %d, reference %d",
							e.Params.Name, chain, arm.name, ti, got.Count(), want.Count())
					}
					narrow = narrow || FrameWidth(s) == 1
					want = want.Clone()
					want.IntersectWith(targets[ti])
					if got := s.DetectTest(tst.SI, tst.Seq, targets[ti]); !got.Equal(want) {
						t.Fatalf("%s/%s/%s test %d: targeted kernel detects %d, reference %d",
							e.Params.Name, chain, arm.name, ti, got.Count(), want.Count())
					}
				}
				if got := s.DetectSet(ts); !got.Equal(union) {
					t.Fatalf("%s/%s/%s: DetectSet %d, union of tests %d",
						e.Params.Name, chain, arm.name, got.Count(), union.Count())
				}
			}
		}
	}
	if !multi {
		t.Errorf("no roster test launched more than %d faults in one cycle: multi-frame capture untested", frame)
	}
	if !narrow {
		t.Error("no roster test ran a capture frame at one word: one-word frames untested")
	}
}

// oddChain scans the flip-flops at odd positions.
func oddChain(nff int) *scan.Chain {
	var ffs []int
	for i := 1; i < nff; i += 2 {
		ffs = append(ffs, i)
	}
	ch, err := scan.NewChain(nff, ffs)
	if err != nil {
		panic(err)
	}
	return ch
}

// FuzzTransitionDifferential compares the kernel capture frames with the
// reference on fuzzer-shaped circuits and tests, under full scan and
// under a chain of the odd flip-flop positions, with every kind of
// capture frame.
func FuzzTransitionDifferential(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for _, c := range []*circuit.Circuit{samples.S27(), samples.ShiftReg(3)} {
		seed := scan.Test{SI: randVector(r, c.NumFFs(), 5), Seq: randSequence(r, c.NumPIs(), 6, 5)}
		data, err := oracle.EncodeFuzz(c, seed)
		if err != nil {
			f.Fatalf("%s: corpus encode: %v", c.Name, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, tst, err := oracle.DecodeFuzz(data)
		if err != nil {
			t.Skip()
		}
		faults := Universe(c)
		partial := oddChain(c.NumFFs())
		var oddSI logic.Vector
		for _, i := range partial.FFs {
			oddSI = append(oddSI, tst.SI[i])
		}
		for _, arm := range []struct {
			ch *scan.Chain
			si logic.Vector
		}{{nil, tst.SI}, {partial, oddSI}} {
			want := naiveDetect(c, arm.ch, faults, arm.si, tst.Seq)
			for _, kind := range captureArms {
				s := NewChain(c, faults, arm.ch)
				kind.force(s)
				if got := s.DetectTest(arm.si, tst.Seq, nil); !got.Equal(want) {
					t.Fatalf("chain %v, %s: kernel %v, reference %v", arm.ch, kind.name, got.Indices(), want.Indices())
				}
			}
		}
	})
}

func TestDetectSetDropsAcrossTests(t *testing.T) {
	c := samples.ShiftReg(3)
	faults := Universe(c)
	s := New(c, faults)
	ts := scan.NewSet(
		scan.Test{SI: vec("000"), Seq: logic.Sequence{vec("1"), vec("0"), vec("1")}},
		scan.Test{SI: vec("111"), Seq: logic.Sequence{vec("0"), vec("1"), vec("0")}},
	)
	union := s.DetectSet(ts)
	a := s.DetectTest(ts.Tests[0].SI, ts.Tests[0].Seq, nil)
	b := s.DetectTest(ts.Tests[1].SI, ts.Tests[1].Seq, nil)
	want := a.Clone()
	want.UnionWith(b)
	if !union.Equal(want) {
		t.Errorf("DetectSet %d != union %d", union.Count(), want.Count())
	}
}

func TestLongerSequencesDetectMore(t *testing.T) {
	// The package's raison d'être: splitting one long at-speed run into
	// length-1 scan tests destroys transition coverage.
	c := samples.S27()
	faults := Universe(c)
	s := New(c, faults)
	r := rand.New(rand.NewSource(9))
	si := vec("010")
	seq := randSequence(r, c.NumPIs(), 20, 0)
	long := s.DetectTest(si, seq, nil)
	short := scan.NewSet()
	for _, v := range seq {
		short.Tests = append(short.Tests, scan.Test{SI: si, Seq: logic.Sequence{v}})
	}
	split := s.DetectSet(short)
	if split.Count() != 0 {
		t.Errorf("length-1 tests detected %d transition faults, want 0", split.Count())
	}
	if long.Count() == 0 {
		t.Error("a 20-vector at-speed run should detect some transition faults")
	}
}

func TestPartialChainObservation(t *testing.T) {
	// Slow-to-rise on a write-only FF's D cone is detectable only via
	// that FF's capture at the final cycle; removing the FF from the
	// chain must hide it.
	c := samples.ShiftReg(2) // q1 feeds the parity PO, so use a custom check via chain on q1 only
	faults := Universe(c)
	full := New(c, faults)
	ch, err := scan.NewChain(2, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	part := NewChain(c, faults, ch)
	seq := logic.Sequence{vec("1"), vec("0")}
	gotFull := full.DetectTest(vec("00"), seq, nil)
	gotPart := part.DetectTest(vec("0"), seq, nil)
	if gotPart.Count() > gotFull.Count() {
		t.Errorf("partial chain detected more (%d) than full (%d)", gotPart.Count(), gotFull.Count())
	}
}
