package oracle

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/response"
	"repro/internal/samples"
	"repro/internal/scan"
)

func randVec(r *rand.Rand, n int, xs bool) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		if xs && r.Intn(6) == 0 {
			v[i] = logic.X
		} else {
			v[i] = logic.Value(r.Intn(2))
		}
	}
	return v
}

func randSeq(r *rand.Rand, cycles, n int, xs bool) logic.Sequence {
	seq := make(logic.Sequence, cycles)
	for i := range seq {
		seq[i] = randVec(r, n, xs)
	}
	return seq
}

// randTargets returns a random set of size faults out of n.
func randTargets(r *rand.Rand, n, size int) *fault.Set {
	set := fault.NewSet(n)
	for _, f := range r.Perm(n)[:size] {
		set.Add(f)
	}
	return set
}

// TestMatchesFsimS27 exercises every Detect mode on the hand-written
// s27: full scan, partial scan and no scan.
func TestMatchesFsimS27(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	r := rand.New(rand.NewSource(7))

	ch, err := scan.NewChain(c.NumFFs(), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	chains := []*scan.Chain{nil, ch}
	for _, chain := range chains {
		fs := fsim.NewChain(c, faults, chain)
		orc := NewChain(c, faults, chain)
		for trial := 0; trial < 20; trial++ {
			si := randVec(r, orc.Nsv(), true)
			seq := randSeq(r, 1+r.Intn(6), c.NumPIs(), true)

			fgot := fs.Detect(seq, fsim.Options{Init: si, ScanOut: true})
			ogot := orc.Detect(seq, Options{Init: si, ScanOut: true})
			if !fgot.Equal(ogot) {
				t.Fatalf("chain=%v trial %d: detected sets differ: fsim %d, oracle %d",
					chain, trial, fgot.Count(), ogot.Count())
			}

			// No-scan arm, PO observation only.
			fgot = fs.Detect(seq, fsim.Options{})
			ogot = orc.Detect(seq, Options{})
			if !fgot.Equal(ogot) {
				t.Fatalf("chain=%v trial %d (no scan): sets differ", chain, trial)
			}
		}
	}
}

// TestEmptySequenceDetectsNothing pins the shared fsim/oracle contract:
// a test with no at-speed vectors detects nothing, even at scan-out.
func TestEmptySequenceDetectsNothing(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	fs := fsim.New(c, faults)
	orc := New(c, faults)
	si := logic.Vector{logic.Zero, logic.One, logic.Zero}
	if got := fs.DetectTest(si, nil, nil); got.Count() != 0 {
		t.Errorf("fsim detects %d faults with an empty sequence", got.Count())
	}
	if got := orc.DetectTest(si, nil, nil); got.Count() != 0 {
		t.Errorf("oracle detects %d faults with an empty sequence", got.Count())
	}
}

// TestTargetsRestrictDetection checks that Targets limits the returned
// set without changing membership for the targeted faults.
func TestTargetsRestrictDetection(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	orc := New(c, faults)
	r := rand.New(rand.NewSource(3))
	si := randVec(r, c.NumFFs(), false)
	seq := randSeq(r, 4, c.NumPIs(), false)

	full := orc.DetectTest(si, seq, nil)
	targets := fault.NewSet(len(faults))
	for i := 0; i < len(faults); i += 2 {
		targets.Add(i)
	}
	got := orc.DetectTest(si, seq, targets)
	want := full.Clone()
	want.IntersectWith(targets)
	if !got.Equal(want) {
		t.Fatalf("targeted detection differs: got %d, want %d", got.Count(), want.Count())
	}
}

// TestGoodResponseMatchesResponsePackage cross-checks the two
// independent good-machine implementations on random scan tests.
func TestGoodResponseMatchesResponsePackage(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	ch, err := scan.NewChain(c.NumFFs(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	for _, chain := range []*scan.Chain{nil, ch} {
		orc := NewChain(c, faults, chain)
		for trial := 0; trial < 10; trial++ {
			tst := scan.Test{
				SI:  randVec(r, orc.Nsv(), true),
				Seq: randSeq(r, 1+r.Intn(5), c.NumPIs(), true),
			}
			want := orc.GoodResponse(tst)
			got := response.Compute(c, chain, tst)
			if !responsesEqual(want, got) {
				t.Fatalf("chain=%v trial %d: responses differ:\noracle %v / %v\nresponse %v / %v",
					chain, trial, want.POs, want.ScanOut, got.POs, got.ScanOut)
			}
		}
	}
}

// TestDetectSetUnion checks that grading a set equals the union of
// grading its tests.
func TestDetectSetUnion(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	orc := New(c, faults)
	r := rand.New(rand.NewSource(5))
	ts := scan.NewSet()
	for i := 0; i < 4; i++ {
		ts.Tests = append(ts.Tests, scan.Test{
			SI:  randVec(r, c.NumFFs(), false),
			Seq: randSeq(r, 1+r.Intn(3), c.NumPIs(), false),
		})
	}
	want := fault.NewSet(len(faults))
	for _, tst := range ts.Tests {
		want.UnionWith(orc.DetectTest(tst.SI, tst.Seq, nil))
	}
	if got := orc.DetectSet(ts, nil); !got.Equal(want) {
		t.Fatalf("DetectSet %d != union %d", got.Count(), want.Count())
	}
}
