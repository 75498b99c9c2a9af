package fsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/scan"
	"repro/internal/sim"
)

// These tests live in package fsim_test so they can use the scalar
// reference simulator: package oracle imports core, which imports fsim.

// kernelDiffFixture builds a circuit, its collapsed faults, an
// X-bearing input sequence and a scan-in vector, plus the matching
// optimized and reference simulators.
func kernelDiffFixture(t testing.TB, partial bool) (*fsim.Simulator, *oracle.Sim, logic.Sequence, logic.Vector) {
	t.Helper()
	c := gen.MustGenerate(gen.Params{Name: "kd", Seed: 17, PIs: 6, POs: 5, FFs: 16, Gates: 100, MaxFanin: 5})
	faults := fault.Collapse(c)
	if len(faults) < 64*sim.WideWidth {
		t.Fatalf("fixture too small for more than one wide pass: %d faults", len(faults))
	}
	r := rand.New(rand.NewSource(9))
	seq := make(logic.Sequence, 12)
	for u := range seq {
		seq[u] = make(logic.Vector, c.NumPIs())
		for i := range seq[u] {
			// Sprinkle X inputs: the kernel's three-valued semantics must
			// match the reference on unknowns, not just on 0/1.
			switch r.Intn(6) {
			case 0:
				seq[u][i] = logic.X
			case 1, 2:
				seq[u][i] = logic.Zero
			default:
				seq[u][i] = logic.One
			}
		}
	}
	var ch *scan.Chain
	nsv := c.NumFFs()
	if partial {
		ffs := make([]int, c.NumFFs()/2)
		for i := range ffs {
			ffs[i] = 2 * i
		}
		var err error
		if ch, err = scan.NewChain(c.NumFFs(), ffs); err != nil {
			t.Fatal(err)
		}
		nsv = len(ffs)
	}
	si := make(logic.Vector, nsv)
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}
	return fsim.NewChain(c, faults, ch), oracle.NewChain(c, faults, ch), seq, si
}

// randomTargets returns a seeded random set of size faults out of n.
func randomTargets(r *rand.Rand, n, size int) *fault.Set {
	set := fault.NewSet(n)
	for _, f := range r.Perm(n)[:size] {
		set.Add(f)
	}
	return set
}

// restrict returns set ∩ targets (a copy of set when targets is nil).
func restrict(set, targets *fault.Set) *fault.Set {
	out := set.Clone()
	if targets != nil {
		out.IntersectWith(targets)
	}
	return out
}

// TestKernelWidthEquivalence is the fsim-level differential against the
// scalar reference. The pass width follows the target count, so a target
// set of 40 faults runs in one one-word pass, a set of 100 faults in one
// wide pass, a set of 256 faults (one more than a wide pass holds) in two
// and the full list in several. For every target set, for full and
// partial scan and for serial and parallel workers, fsim must reproduce
// oracle.Sim's detected set, Profile must match the reference on every
// prefix test (SI, T[0..u]), and the must-detect check must accept
// exactly the detected faults.
func TestKernelWidthEquivalence(t *testing.T) {
	for _, partial := range []bool{false, true} {
		name := "full"
		if partial {
			name = "partial"
		}
		t.Run(name, func(t *testing.T) {
			s, orc, seq, si := kernelDiffFixture(t, partial)
			n := s.NumFaults()
			want := orc.DetectTest(si, seq, nil)
			wantPrefix := make([]*fault.Set, len(seq))
			for u := range seq {
				wantPrefix[u] = orc.DetectTest(si, seq[:u+1], nil)
			}

			r := rand.New(rand.NewSource(12))
			for _, arm := range []struct {
				name string
				size int
			}{{"40", 40}, {"100", 100}, {"256", 256}, {"all", n}} {
				size := arm.size
				var targets *fault.Set // nil: the whole fault list
				if size < n {
					targets = randomTargets(r, n, size)
				}
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/workers%d", arm.name, workers), func(t *testing.T) {
						s.SetWorkers(workers)
						wantDet := restrict(want, targets)
						if det := s.DetectTest(si, seq, targets); !det.Equal(wantDet) {
							t.Fatalf("detected set differs from oracle: fsim %d, oracle %d", det.Count(), wantDet.Count())
						}
						// A one-vector run never repacks, so one generation of
						// passes at the derived width covers the targets.
						before := s.Stats()
						s.Profile(si, seq[:1], targets)
						words := sim.WidthFor(size + 1)
						slots := 64*words - 1
						if got, wantPasses := s.Stats().Sub(before).Passes, int64((size+slots-1)/slots); got != wantPasses {
							t.Fatalf("%d targets ran in %d passes, want %d at %d words", size, got, wantPasses, words)
						}
						prof := s.Profile(si, seq, targets)
						for f := 0; f < n; f++ {
							if targets != nil && !targets.Has(f) {
								continue
							}
							for u := range seq {
								if prof.DetectedByPrefix(f, u) != wantPrefix[u].Has(f) {
									t.Fatalf("fault %d prefix %d: DetectedByPrefix = %v, oracle %v",
										f, u, prof.DetectedByPrefix(f, u), wantPrefix[u].Has(f))
								}
							}
						}
						opt := fsim.Options{Init: si, ScanOut: true}
						if _, ok := s.RecordMustInto(nil, seq, opt, wantDet); !ok {
							t.Fatal("RecordMustInto rejected the oracle's detected set")
						}
						undet := fault.NewFullSet(n)
						undet.SubtractWith(want)
						if undet = restrict(undet, targets); undet.Count() > 0 {
							if _, ok := s.RecordMustInto(nil, seq, opt, undet); ok {
								t.Fatal("RecordMustInto accepted undetected faults")
							}
						}
					})
				}
			}
		})
	}
}

// TestKernelTargetSubsets drives runs whose target sets sit on either
// side of the packing boundaries (63/64 targets switch from one word to
// the wide width, 255/256 from one wide pass to two) — the
// fault-dropping path of the compaction loops — against the scalar
// reference.
func TestKernelTargetSubsets(t *testing.T) {
	s, orc, seq, si := kernelDiffFixture(t, false)
	n := s.NumFaults()
	want := orc.DetectTest(si, seq, nil)
	r := rand.New(rand.NewSource(12))
	for _, size := range []int{1, 2, 63, 64, 65, 127, 128, 130, 255, 256} {
		targets := randomTargets(r, n, size)
		if got := s.DetectTest(si, seq, targets); !got.Equal(restrict(want, targets)) {
			t.Errorf("targets=%d: detected set differs from oracle", size)
		}
	}
}

// lengthOneTests draws n length-1 scan tests for s's circuit with X in
// about a sixth of the scan-in and PI bits. Every fifth test is one
// position short in both vectors, so the missing positions must read as
// X.
func lengthOneTests(r *rand.Rand, s *fsim.Simulator, n int) []scan.Test {
	val := func() logic.Value {
		switch r.Intn(6) {
		case 0:
			return logic.X
		case 1, 2:
			return logic.Zero
		}
		return logic.One
	}
	tests := make([]scan.Test, n)
	for k := range tests {
		si := make(logic.Vector, s.Nsv())
		vec := make(logic.Vector, s.Circuit().NumPIs())
		if k%5 == 4 {
			si, vec = si[:len(si)-1], vec[:len(vec)-1]
		}
		for i := range si {
			si[i] = val()
		}
		for i := range vec {
			vec[i] = val()
		}
		tests[k] = scan.Test{SI: si, Seq: logic.Sequence{vec}}
	}
	return tests
}

// TestKernelLengthOneTests grades 64 length-1 scan tests under full and
// partial scan: DetectTest must equal the scalar reference on each, so a
// position missing from a short vector reads as X.
func TestKernelLengthOneTests(t *testing.T) {
	for _, partial := range []bool{false, true} {
		s, orc, _, _ := kernelDiffFixture(t, partial)
		for k, tst := range lengthOneTests(rand.New(rand.NewSource(21)), s, 64) {
			if got, want := s.DetectTest(tst.SI, tst.Seq, nil), orc.DetectTest(tst.SI, tst.Seq, nil); !got.Equal(want) {
				t.Fatalf("partial %v: DetectTest differs from oracle on test %d: %d detected, oracle %d", partial, k, got.Count(), want.Count())
			}
		}
	}
}
