package fsim

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/samples"
)

// TestProfileMatchesPrefixSimulation is the central correctness property
// of the Phase-1 Step-3 machinery: for every fault f and every prefix
// length u, DetectedByPrefix(f, u) must equal a direct fault simulation
// of the prefix test (SI, T[0..u]) with scan-out.
func TestProfileMatchesPrefixSimulation(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	s := New(c, faults)
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 3; trial++ {
		seq := randomSeq(r, c.NumPIs(), 12)
		si := make(logic.Vector, c.NumFFs())
		for i := range si {
			si[i] = logic.Value(r.Intn(2))
		}
		p := s.Profile(si, seq, nil)
		for u := 0; u < len(seq); u++ {
			direct := s.DetectTest(si, seq[:u+1], nil)
			for fi := range faults {
				if got, want := p.DetectedByPrefix(fi, u), direct.Has(fi); got != want {
					t.Errorf("trial %d fault %s prefix %d: profile=%v direct=%v",
						trial, faults[fi].String(c), u, got, want)
				}
			}
		}
	}
}

// TestProfilePassStats: a Profile run is the Record run without the
// final scan-out compare, so it moves the pass counters exactly as that
// run does, whichever kind of frame its passes take and at 1 and 2
// workers: it drops detected slots, ends a pass once every slot is
// detected at a PO and repacks the survivors. On targets that are all
// detected at a PO before the last vector, every pass ends early.
func TestProfilePassStats(t *testing.T) {
	for _, arm := range []struct {
		name  string
		force func(*Simulator)
	}{
		{"sweep", ForceSweep},
		{"events", func(s *Simulator) { ForceEvents(s, -1) }},
	} {
		for _, workers := range []int{1, 2} {
			s, faults, seq, si := parallelFixture(t)
			s.SetWorkers(workers)
			arm.force(s)
			early := fault.NewSet(len(faults))
			rec := s.Record(seq, Options{Init: si})
			rec.Detected().ForEach(func(f int) {
				if rec.FirstPO(f) < len(seq)-1 {
					early.Add(f)
				}
			})
			for _, targets := range []*fault.Set{nil, early} {
				before := s.Stats()
				s.Record(seq, Options{Init: si, Targets: targets})
				mid := s.Stats()
				s.Profile(si, seq, targets)
				got, want := s.Stats().Sub(mid), mid.Sub(before)
				if got != want {
					t.Fatalf("%s, workers %d, targets %v: Profile counters %+v, Record's %+v",
						arm.name, workers, targets != nil, got, want)
				}
				if targets != nil && got.PassVectors >= got.Passes*int64(len(seq)) {
					t.Fatalf("%s, workers %d: %d passes over early-detected targets ran %d vectors, want fewer than %d",
						arm.name, workers, got.Passes, got.PassVectors, got.Passes*int64(len(seq)))
				}
			}
		}
	}
}

// TestProfileDetectedFullMatchesDetect: the prefix that ends at the last
// vector is the whole test, so it detects what DetectTest does.
func TestProfileDetectedFullMatchesDetect(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	s := New(c, faults)
	r := rand.New(rand.NewSource(33))
	seq := randomSeq(r, c.NumPIs(), 15)
	si := vec("010")
	p := s.Profile(si, seq, nil)
	direct := s.DetectTest(si, seq, nil)
	if !p.DetectedByPrefixSet(len(seq) - 1).Equal(direct) {
		t.Error("the full-length prefix disagrees with DetectTest")
	}
}

func TestEarliestPrefixCovering(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	s := New(c, faults)
	r := rand.New(rand.NewSource(44))
	seq := randomSeq(r, c.NumPIs(), 20)
	si := vec("000")
	p := s.Profile(si, seq, nil)
	full := p.DetectedByPrefixSet(len(seq) - 1)
	if full.Count() == 0 {
		t.Fatal("test sequence detects nothing; pick a different seed")
	}
	u := p.EarliestPrefixCovering(full)
	if u < 0 {
		t.Fatal("the full sequence itself covers the full detection set, so a prefix must exist")
	}
	// The chosen prefix really covers the set...
	if !p.DetectedByPrefixSet(u).ContainsAll(full) {
		t.Error("selected prefix does not cover the required set")
	}
	// ...and no shorter prefix does (minimality of i_0).
	for v := 0; v < u; v++ {
		if p.DetectedByPrefixSet(v).ContainsAll(full) {
			t.Errorf("prefix %d < %d already covers the set", v, u)
		}
	}
}

func TestEarliestPrefixCoveringImpossible(t *testing.T) {
	c := samples.Toggle()
	eni, _ := c.NodeByName("en")
	qi, _ := c.NodeByName("q")
	faults := []fault.Fault{
		{Node: eni, Pin: -1, Stuck: logic.Zero},
		{Node: qi, Pin: -1, Stuck: logic.One},
	}
	s := New(c, faults)
	// en=0 sequence: neither fault is excitable/observable... q s-a-1 IS
	// detectable (good q stays 0, faulty 1 shows at out). en s-a-0 is not.
	p := s.Profile(vec("0"), logic.Sequence{vec("0"), vec("0")}, nil)
	must := fault.FromIndices(2, []int{0, 1})
	if u := p.EarliestPrefixCovering(must); u != -1 {
		t.Errorf("EarliestPrefixCovering = %d, want -1 (en fault undetectable here)", u)
	}
	// Fault outside the simulated targets also yields -1.
	pPart := s.Profile(vec("0"), logic.Sequence{vec("0")}, fault.FromIndices(2, []int{1}))
	if u := pPart.EarliestPrefixCovering(fault.FromIndices(2, []int{0})); u != -1 {
		t.Errorf("unsimulated fault should make covering impossible, got %d", u)
	}
}

func TestProfileScanOutNonMonotone(t *testing.T) {
	// The toggle circuit shows non-monotone scan-out detection: en s-a-0
	// with SI=0 and T=(1,1). Good states: 1 then 0. Faulty: 0 then 0.
	// Scan-out after u=0 detects; after u=1 both states agree (0), so the
	// longer prefix does NOT detect via scan-out, and the PO at u=1
	// (good 1, faulty 0) saves it instead.
	c := samples.Toggle()
	eni, _ := c.NodeByName("en")
	faults := []fault.Fault{{Node: eni, Pin: -1, Stuck: logic.Zero}}
	s := New(c, faults)
	p := s.Profile(vec("0"), logic.Sequence{vec("1"), vec("1")}, nil)
	if !p.ScanOutDetects(0, 0) {
		t.Error("scan-out after u=0 must detect")
	}
	if p.ScanOutDetects(0, 1) {
		t.Error("scan-out after u=1 must NOT detect (states re-converge)")
	}
	if got := p.Record().FirstPO(0); got != 1 {
		t.Errorf("PO detect time = %d, want 1", got)
	}
	if !p.DetectedByPrefix(0, 0) || !p.DetectedByPrefix(0, 1) {
		t.Error("both prefixes detect overall")
	}
}

func TestProfileEmptySequence(t *testing.T) {
	c := samples.Toggle()
	s := New(c, fault.Collapse(c))
	p := s.Profile(vec("0"), nil, nil)
	if p.Record().SeqLen() != 0 {
		t.Error("SeqLen should be 0")
	}
	if p.DetectedByPrefixSet(-1).Count() != 0 {
		t.Error("empty sequence detects nothing")
	}
	if u := p.EarliestPrefixCovering(fault.NewSet(s.NumFaults())); u != -1 {
		t.Errorf("empty profile EarliestPrefixCovering = %d, want -1", u)
	}
}
