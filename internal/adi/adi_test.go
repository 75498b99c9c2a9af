package adi

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/scan"
)

func rosterSim(t *testing.T, name string) *fsim.Simulator {
	t.Helper()
	c, ok := gen.RosterCircuit(name)
	if !ok {
		t.Fatalf("unknown roster circuit %q", name)
	}
	return fsim.New(c, fault.Collapse(c))
}

// referenceCompute is Compute as 32 fault-parallel grading runs, one
// per sampled test: the same draws from the same seed, each test graded
// by Detect over the whole fault list. It is the test reference for the
// pattern-parallel pass.
func referenceCompute(s *fsim.Simulator, opt Options) []int {
	r := rand.New(rand.NewSource(opt.Seed))
	scores := make([]int, s.NumFaults())
	nsv, npi := s.Nsv(), s.Circuit().NumPIs()
	for p := 0; p < patterns; p++ {
		si := make(logic.Vector, nsv)
		for i := range si {
			si[i] = logic.Value(r.Intn(2))
		}
		vec := make(logic.Vector, npi)
		for i := range vec {
			vec[i] = logic.Value(r.Intn(2))
		}
		det := s.Detect(logic.Sequence{vec}, fsim.Options{Init: si, ScanOut: true})
		det.ForEach(func(fi int) { scores[fi]++ })
	}
	return scores
}

// TestComputeMatchesReference pins Compute's scores, fault for fault, to
// the reference loop on every roster circuit, at one and two workers,
// under full scan and under a chain of the first half of the
// flip-flops. Equal scores mean an equal installed order, so every pass
// packing and table downstream is unchanged.
func TestComputeMatchesReference(t *testing.T) {
	for _, name := range gen.RosterNames() {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		faults := fault.Collapse(c)
		half := make([]int, c.NumFFs()/2)
		for i := range half {
			half[i] = i
		}
		partial, err := scan.NewChain(c.NumFFs(), half)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range []*scan.Chain{nil, partial} {
			arm := "full"
			if ch != nil {
				arm = "partial"
			}
			t.Run(name+"/"+arm, func(t *testing.T) {
				t.Parallel()
				opt := Options{Seed: 3}
				want := referenceCompute(fsim.NewChain(c, faults, ch), opt)
				for _, workers := range []int{1, 2} {
					got := Compute(fsim.NewChain(c, faults, ch).SetWorkers(workers), opt)
					for fi := range want {
						if got[fi] != want[fi] {
							t.Fatalf("workers %d: fault %d (%s): score %d, reference %d",
								workers, fi, faults[fi].String(c), got[fi], want[fi])
						}
					}
				}
			})
		}
	}
}

func TestComputeDeterministic(t *testing.T) {
	s := rosterSim(t, "s298")
	opt := Options{Seed: 42}
	a := Compute(s, opt)
	b := Compute(s, opt)
	if len(a) != s.NumFaults() {
		t.Fatalf("score count %d, want %d", len(a), s.NumFaults())
	}
	nonzero := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d: scores differ across identical runs (%d vs %d)", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] > patterns {
			t.Fatalf("fault %d: score %d outside [0, %d]", i, a[i], patterns)
		}
		if a[i] > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("no fault scored: random sampling detected nothing")
	}
	// Worker count must not change the scores.
	c := Compute(s.SetWorkers(4), opt)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("fault %d: score differs under workers (%d vs %d)", i, a[i], c[i])
		}
	}
}

func TestOrderIsSortedPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 257
	scores := make([]int, n)
	tie := make([]int, n)
	for i := range scores {
		scores[i] = r.Intn(9)
		tie[i] = r.Intn(5)
	}
	perm := Order(scores, tie)
	if len(perm) != n {
		t.Fatalf("perm length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, i := range perm {
		if i < 0 || i >= n || seen[i] {
			t.Fatalf("not a permutation at %d", i)
		}
		seen[i] = true
	}
	for k := 1; k < n; k++ {
		i, j := perm[k-1], perm[k]
		switch {
		case scores[i] > scores[j]:
		case scores[i] < scores[j]:
			t.Fatalf("scores out of order at %d: %d then %d", k, scores[i], scores[j])
		case tie[i] < tie[j]:
		case tie[i] > tie[j]:
			t.Fatalf("tie out of order at %d", k)
		case i >= j:
			t.Fatalf("index tie-break violated at %d: %d then %d", k, i, j)
		}
	}
	// nil tie falls back to index order within equal scores.
	perm = Order(scores, nil)
	for k := 1; k < n; k++ {
		i, j := perm[k-1], perm[k]
		if scores[i] == scores[j] && i >= j {
			t.Fatalf("nil-tie index order violated at %d", k)
		}
	}
}

// TestInstallResultsInvariant is the core ordering guarantee: installing
// the ADI order changes only pass packing, so detection sets from every
// entry point are bit-identical to the unordered simulator's.
func TestInstallResultsInvariant(t *testing.T) {
	for _, name := range []string{"s298", "b06"} {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		faults := fault.Collapse(c)
		plain := fsim.New(c, faults)
		ordered := fsim.New(c, faults)
		perm := Install(ordered, Options{Seed: 5})
		if len(perm) != len(faults) {
			t.Fatalf("%s: perm length %d, want %d", name, len(perm), len(faults))
		}
		r := rand.New(rand.NewSource(11))
		for rep := 0; rep < 5; rep++ {
			si := make(logic.Vector, plain.Nsv())
			for i := range si {
				si[i] = logic.Value(r.Intn(2))
			}
			seq := make(logic.Sequence, 3+r.Intn(4))
			for u := range seq {
				seq[u] = make(logic.Vector, c.NumPIs())
				for i := range seq[u] {
					seq[u][i] = logic.Value(r.Intn(2))
				}
			}
			want := plain.DetectTest(si, seq, nil)
			got := ordered.DetectTest(si, seq, nil)
			if !got.Equal(want) {
				t.Fatalf("%s rep %d: ordered detection differs (%d vs %d)",
					name, rep, got.Count(), want.Count())
			}
			// Targeted runs and must-detect checks agree too.
			sub := fault.NewSet(len(faults))
			for i := 0; i < len(faults); i += 2 {
				sub.Add(i)
			}
			wantSub := plain.DetectTest(si, seq, sub)
			gotSub := ordered.DetectTest(si, seq, sub)
			if !gotSub.Equal(wantSub) {
				t.Fatalf("%s rep %d: targeted detection differs", name, rep)
			}
			opt := fsim.Options{Init: si, ScanOut: true}
			plainRec, pa := plain.RecordMustInto(nil, seq, opt, want)
			ordRec, oa := ordered.RecordMustInto(nil, seq, opt, want)
			if pa != oa || !plainRec.Detected().Equal(ordRec.Detected()) {
				t.Fatalf("%s rep %d: must-detect checks differ (%v vs %v)", name, rep, pa, oa)
			}
		}
	}
}

// TestOrderedDroppingReducesWork demonstrates the perf mechanism on a
// real roster circuit: grading a long random sequence and then a test
// set with fault dropping, the ADI-ordered simulator executes no more
// pass-vectors than the ascending-order baseline, while detecting the
// identical fault sets. Descending-ADI packing concentrates the easy
// faults into early passes, which then hit the all-detected early exit
// after a few vectors instead of dragging one hard fault through the
// whole replay; the hard and undetectable faults share the late passes.
func TestOrderedDroppingReducesWork(t *testing.T) {
	c, ok := gen.RosterCircuit("s1423")
	if !ok {
		t.Fatal("unknown roster circuit s1423")
	}
	faults := fault.Collapse(c)
	r := rand.New(rand.NewSource(3))
	rvec := func(n int) logic.Vector {
		v := make(logic.Vector, n)
		for i := range v {
			v[i] = logic.Value(r.Intn(2))
		}
		return v
	}
	long := make(logic.Sequence, 64)
	for u := range long {
		long[u] = rvec(c.NumPIs())
	}
	tests := make([]logic.Vector, 8)
	seqs := make([]logic.Sequence, 8)
	for k := range tests {
		tests[k] = rvec(c.NumFFs())
		seqs[k] = make(logic.Sequence, 16)
		for u := range seqs[k] {
			seqs[k][u] = rvec(c.NumPIs())
		}
	}
	grade := func(s *fsim.Simulator) (*fault.Set, fsim.PassStats) {
		s.ResetStats()
		detected := s.Detect(long, fsim.Options{}) // T_0-style grading
		remaining := fault.NewFullSet(len(faults))
		remaining.SubtractWith(detected)
		for k := range tests { // scan-test grading with dropping
			det := s.DetectTest(tests[k], seqs[k], remaining)
			detected.UnionWith(det)
			remaining.SubtractWith(det)
		}
		return detected, s.Stats()
	}
	plain := fsim.New(c, faults)
	ordered := fsim.New(c, faults)
	Install(ordered, Options{Seed: 9})
	wantDet, base := grade(plain)
	ordered.ResetStats() // exclude the sampling cost from the comparison
	gotDet, opt := grade(ordered)
	if !gotDet.Equal(wantDet) {
		t.Fatalf("detection differs: %d vs %d", gotDet.Count(), wantDet.Count())
	}
	if opt.PassVectors > base.PassVectors {
		t.Errorf("ordered grading executed more pass-vectors (%d) than baseline (%d)",
			opt.PassVectors, base.PassVectors)
	}
	t.Logf("pass-vectors: baseline %d, adi-ordered %d (%.1f%%)",
		base.PassVectors, opt.PassVectors, 100*float64(opt.PassVectors)/float64(base.PassVectors))
}

// BenchmarkADIOrderedGrading is the CI smoke benchmark: one pass of the
// ordered+collapsed grading workload (ADI sampling, long-sequence
// grading, scan tests with dropping) on a roster circuit. Run with
// -benchtime 1x for a correctness-path smoke, or longer for timing.
func BenchmarkADIOrderedGrading(b *testing.B) {
	c, ok := gen.RosterCircuit("s298")
	if !ok {
		b.Fatal("unknown roster circuit s298")
	}
	faults := fault.Collapse(c)
	r := rand.New(rand.NewSource(17))
	rvec := func(n int) logic.Vector {
		v := make(logic.Vector, n)
		for i := range v {
			v[i] = logic.Value(r.Intn(2))
		}
		return v
	}
	long := make(logic.Sequence, 48)
	for u := range long {
		long[u] = rvec(c.NumPIs())
	}
	tests := make([]logic.Vector, 6)
	seqs := make([]logic.Sequence, 6)
	for k := range tests {
		tests[k] = rvec(c.NumFFs())
		seqs[k] = make(logic.Sequence, 12)
		for u := range seqs[k] {
			seqs[k][u] = rvec(c.NumPIs())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := fsim.New(c, faults)
		Install(s, Options{Seed: 17})
		detected := s.Detect(long, fsim.Options{})
		remaining := fault.NewFullSet(len(faults))
		remaining.SubtractWith(detected)
		for k := range tests {
			det := s.DetectTest(tests[k], seqs[k], remaining)
			detected.UnionWith(det)
			remaining.SubtractWith(det)
		}
		if detected.Count() == 0 {
			b.Fatal("smoke grading detected nothing")
		}
	}
}

// BenchmarkADICompute times the accidental-detection index on s35932
// (s1423 under -short): the pattern-parallel pass Compute runs, and the
// 32 fault-parallel grading runs of referenceCompute it replaced.
func BenchmarkADICompute(b *testing.B) {
	name := "s35932"
	if testing.Short() {
		name = "s1423"
	}
	c, ok := gen.RosterCircuit(name)
	if !ok {
		b.Fatalf("unknown roster circuit %q", name)
	}
	faults := fault.Collapse(c)
	for _, arm := range []struct {
		name    string
		compute func(*fsim.Simulator, Options) []int
	}{{"compute", Compute}, {"reference", referenceCompute}} {
		b.Run(name+"/"+arm.name, func(b *testing.B) {
			s := fsim.New(c, faults)
			arm.compute(s, Options{Seed: 1}) // compile the program outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arm.compute(s, Options{Seed: 1})
			}
		})
	}
}
