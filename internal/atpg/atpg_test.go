package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/samples"
	"repro/internal/scan"
	"repro/internal/scoap"
	"repro/internal/sim"
)

// exhaustiveDetectable grades every binary assignment of the
// assignable inputs — the PIs and the chain's flip-flops — as a length-1
// scan test, and reports per fault whether any of them detects it. Each
// assignment targets only the faults no earlier one detected. This is
// the ground truth PODEM must agree with on small circuits.
func exhaustiveDetectable(s *fsim.Simulator, nsv int) []bool {
	c := s.Circuit()
	undetected := fault.NewFullSet(s.NumFaults())
	nIn := c.NumPIs() + nsv
	for m := 0; m < 1<<nIn && undetected.Count() > 0; m++ {
		pi := make(logic.Vector, c.NumPIs())
		st := make(logic.Vector, nsv)
		for i := range pi {
			pi[i] = logic.Value((m >> i) & 1)
		}
		for i := range st {
			st[i] = logic.Value((m >> (len(pi) + i)) & 1)
		}
		undetected.SubtractWith(s.DetectTest(st, logic.Sequence{pi}, undetected))
	}
	detectable := make([]bool, s.NumFaults())
	for fi := range detectable {
		detectable[fi] = !undetected.Has(fi)
	}
	return detectable
}

// checkPodemAgainstExhaustive runs PODEM on every collapsed fault of c
// under the chain ch (nil = full scan) and compares with brute force. It
// returns the number of untestable verdicts. The backtrack limit
// exceeds 2^n for n assignable inputs up to 13, so no fault aborts.
//
// Under partial scan two known defects of PODEM are tolerated, and only
// there:
//   - an Untestable verdict is not a proof: when a backtrace runs into
//     an unscanned flip-flop, which no decision can set, the search
//     backtracks as if the objective were impossible;
//   - for an output fault on a scanned flip-flop, PODEM observes the
//     flip-flop's own D driver, but the stuck output masks what the
//     flip-flop captures, so the returned test may not detect the fault.
//
// Under full scan every verdict must hold.
func checkPodemAgainstExhaustive(t *testing.T, c *circuit.Circuit, ch *scan.Chain) int {
	t.Helper()
	faults := fault.Collapse(c)
	s := fsim.NewChain(c, faults, ch)
	ch = scan.OrFull(ch, c.NumFFs())
	want := exhaustiveDetectable(s, ch.Nsv())
	full := ch.Nsv() == c.NumFFs()
	// One engine serves every fault, as in Generate.
	eng, tm := sim.NewBatch(sim.Compile(c), 1), scoap.Compute(c, ch)
	untestable, refuted, masked := 0, 0, 0
	for fi, f := range faults {
		assign, status := newPodem(c, eng, f, 10000, ch, tm).run()
		switch status {
		case Detected:
			// The returned test must actually detect the fault (after
			// filling X with zeros — the assigned bits must suffice).
			test := splitAssignment(c, assign)
			fillValue(test.State, logic.Zero)
			fillValue(test.PI, logic.Zero)
			got := s.DetectTest(test.State, logic.Sequence{test.PI}, fault.FromIndices(len(faults), []int{fi}))
			switch {
			case got.Has(fi):
			case !full && f.Pin < 0 && c.Nodes[f.Node].Kind == circuit.DFF:
				masked++
			case !want[fi]:
				t.Errorf("%s chain %v: %s: PODEM claims detected but brute force says undetectable", c.Name, ch, f.String(c))
			default:
				t.Errorf("%s chain %v: %s: PODEM test does not detect the fault", c.Name, ch, f.String(c))
			}
		case Untestable:
			untestable++
			if want[fi] {
				if full {
					t.Errorf("%s chain %v: %s: PODEM claims untestable but a test exists", c.Name, ch, f.String(c))
				}
				refuted++
			}
		case Aborted:
			t.Errorf("%s chain %v: %s: aborted with a huge backtrack limit", c.Name, ch, f.String(c))
		}
	}
	if refuted+masked > 0 {
		t.Logf("%s chain %v: %d of %d untestable verdicts refuted, %d flip-flop output tests masked",
			c.Name, ch, refuted, untestable, masked)
	}
	return untestable
}

func fillValue(v logic.Vector, val logic.Value) {
	for i := range v {
		if !v[i].IsBinary() {
			v[i] = val
		}
	}
}

func TestPodemMatchesExhaustiveComb4(t *testing.T) {
	checkPodemAgainstExhaustive(t, samples.Comb4(), nil)
}

func TestPodemMatchesExhaustiveS27(t *testing.T) {
	c := samples.S27()
	checkPodemAgainstExhaustive(t, c, nil)
	ch, err := scan.NewChain(c.NumFFs(), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	checkPodemAgainstExhaustive(t, c, ch)
}

func TestPodemMatchesExhaustiveToggle(t *testing.T) {
	checkPodemAgainstExhaustive(t, samples.Toggle(), nil)
}

// TestPodemMatchesExhaustiveGenerated checks PODEM's verdicts on
// generated circuits with at most 12 assignable inputs, under full scan
// and with the first half of the flip-flops scanned.
func TestPodemMatchesExhaustiveGenerated(t *testing.T) {
	untestable := 0
	for _, p := range []gen.Params{
		{Name: "px1", Seed: 11, PIs: 4, POs: 3, FFs: 8, Gates: 60},
		{Name: "px2", Seed: 12, PIs: 5, POs: 2, FFs: 6, Gates: 80, XorWeight: 0.3},
		{Name: "px3", Seed: 13, PIs: 3, POs: 4, FFs: 9, Gates: 100, MaxFanin: 4},
	} {
		c := gen.MustGenerate(p)
		half := make([]int, c.NumFFs()/2)
		for i := range half {
			half[i] = i
		}
		ch, err := scan.NewChain(c.NumFFs(), half)
		if err != nil {
			t.Fatal(err)
		}
		untestable += checkPodemAgainstExhaustive(t, c, nil)
		checkPodemAgainstExhaustive(t, c, ch)
	}
	if untestable == 0 {
		t.Error("no untestable verdict was checked under full scan")
	}
}

func TestPodemScanOutOnlyFault(t *testing.T) {
	// q is written but never read: its faults are observable only at
	// scan-out. PODEM must find the test via the D-driver route.
	b := circuit.NewBuilder("deadff")
	b.Input("a")
	b.Input("b")
	b.DFF("q", "d")
	b.Gate("d", circuit.And, "a", "b")
	b.Gate("y", circuit.Or, "a", "b")
	b.Output("y")
	c := b.MustBuild()
	qi, _ := c.NodeByName("q")
	f := fault.Fault{Node: qi, Pin: -1, Stuck: logic.Zero}
	test, status := RunPodem(c, f, 1000)
	if status != Detected {
		t.Fatalf("status = %v, want detected", status)
	}
	// The test must set d = AND(a,b) = 1, i.e. a=b=1.
	if test.PI[0] != logic.One || test.PI[1] != logic.One {
		t.Errorf("test PI = %v, want 11", test.PI)
	}
}

func TestPodemUntestableRedundantFault(t *testing.T) {
	// y = OR(a, NOT(a)) is constant 1: y s-a-1 is undetectable.
	b := circuit.NewBuilder("red")
	b.Input("a")
	b.Gate("na", circuit.Not, "a")
	b.Gate("y", circuit.Or, "a", "na")
	b.Output("y")
	c := b.MustBuild()
	yi, _ := c.NodeByName("y")
	_, status := RunPodem(c, fault.Fault{Node: yi, Pin: -1, Stuck: logic.One}, 1000)
	if status != Untestable {
		t.Errorf("status = %v, want untestable", status)
	}
	// y s-a-0 is trivially detectable.
	_, status = RunPodem(c, fault.Fault{Node: yi, Pin: -1, Stuck: logic.Zero}, 1000)
	if status != Detected {
		t.Errorf("s-a-0 status = %v, want detected", status)
	}
}

func TestStatusString(t *testing.T) {
	if Detected.String() != "detected" || Untestable.String() != "untestable" ||
		Aborted.String() != "aborted" || Status(9).String() != "unknown" {
		t.Error("Status.String wrong")
	}
}

func TestGenerateCompleteCoverageS27(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	res, err := Generate(c, faults, Options{Seed: 1})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	// Every fault is detected or proven untestable (no aborts at this size).
	if res.Aborted.Count() != 0 {
		t.Errorf("%d aborted faults on s27", res.Aborted.Count())
	}
	if res.Detected.Count()+res.Untestable.Count() != len(faults) {
		t.Errorf("partition broken: %d + %d != %d",
			res.Detected.Count(), res.Untestable.Count(), len(faults))
	}
	// The emitted test set must re-achieve the claimed coverage.
	s := fsim.New(c, faults)
	got := fault.NewSet(len(faults))
	for _, tst := range res.Tests {
		got.UnionWith(s.DetectTest(tst.State, logic.Sequence{tst.PI}, nil))
	}
	if !got.ContainsAll(res.Detected) {
		t.Errorf("test set detects %d faults, claimed %d", got.Count(), res.Detected.Count())
	}
	if res.FaultCoverage() <= 0.9 {
		t.Errorf("coverage = %.2f, suspiciously low for s27", res.FaultCoverage())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	a, err := Generate(c, faults, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c, faults, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tests) != len(b.Tests) {
		t.Fatalf("nondeterministic: %d vs %d tests", len(a.Tests), len(b.Tests))
	}
	for i := range a.Tests {
		if !a.Tests[i].State.Equal(b.Tests[i].State) || !a.Tests[i].PI.Equal(b.Tests[i].PI) {
			t.Fatalf("test %d differs between runs", i)
		}
	}
}

// TestGenerateCompactionKeepsCoverage hands compactReverse a list with
// redundant tests — random patterns, then Generate's set twice over —
// and checks that the list never grows, that it sheds the redundant
// tests, and that its coverage is unchanged.
func TestGenerateCompactionKeepsCoverage(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	res, err := Generate(c, faults, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var tests []CombTest
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		tests = append(tests, CombTest{State: randomVector(r, c.NumFFs()), PI: randomVector(r, c.NumPIs())})
	}
	tests = append(append(tests, res.Tests...), res.Tests...)
	s := fsim.New(c, faults)
	coverage := func(tests []CombTest) *fault.Set {
		got := fault.NewSet(len(faults))
		for _, tst := range tests {
			got.UnionWith(s.DetectTest(tst.State, logic.Sequence{tst.PI}, nil))
		}
		return got
	}
	covered := coverage(tests)
	kept := compactReverse(s, tests, covered)
	// The reverse pass meets one copy of Generate's set first, and it
	// covers everything.
	if len(kept) > len(res.Tests) {
		t.Errorf("compaction kept %d of %d tests, more than the %d of Generate's set", len(kept), len(tests), len(res.Tests))
	}
	if !coverage(kept).Equal(covered) {
		t.Error("compaction changed the detected set")
	}
}

func TestCombTestScanTest(t *testing.T) {
	ct := CombTest{State: logic.Vector{logic.One}, PI: logic.Vector{logic.Zero, logic.One}}
	st := ct.ScanTest()
	if st.Len() != 1 || !st.SI.Equal(ct.State) || !st.Seq[0].Equal(ct.PI) {
		t.Errorf("ScanTest = %+v", st)
	}
	st.SI[0] = logic.Zero
	if ct.State[0] != logic.One {
		t.Error("ScanTest must clone vectors")
	}
}

func TestGenerateOnPureCombinational(t *testing.T) {
	c := samples.Comb4()
	faults := fault.Collapse(c)
	res, err := Generate(c, faults, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected.Count()+res.Untestable.Count()+res.Aborted.Count() != len(faults) {
		t.Error("fault partition incomplete")
	}
	for _, tst := range res.Tests {
		if len(tst.State) != 0 {
			t.Error("combinational circuit tests must have empty state part")
		}
	}
}
