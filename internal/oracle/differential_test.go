package oracle

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/scan"
)

// sweepCircuits are the roster entries the differential sweep covers —
// a spread of PI/FF counts so partial scan, wide scan-in vectors and
// deep sequential propagation all occur.
var sweepCircuits = []string{"b01", "b02", "b06", "s298", "s344"}

// TestDifferentialSweep is the acceptance sweep: for every roster
// circuit × seed × scan configuration × worker count, the optimized
// parallel-fault simulator and the scalar reference must produce
// identical detection sets. Each configuration is
// graded three times on the same simulator, so later runs reuse the
// pooled workers' engines and buffers; the sets must not change across
// repetitions. The scan configurations are full scan as a nil chain,
// a chain of the first half of the flip-flops, and full scan as the
// explicit chain scan.Full, under which fsim must also equal fsim under
// a nil chain.
func TestDifferentialSweep(t *testing.T) {
	for _, name := range sweepCircuits {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		faults := fault.Collapse(c)
		half := make([]int, 0, c.NumFFs()/2)
		for i := 0; i < c.NumFFs()/2; i++ {
			half = append(half, i)
		}
		partial, err := scan.NewChain(c.NumFFs(), half)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			for ci, arm := range chainArms(c, partial) {
				chain := arm.chain
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/seed%d/%s/w%d", name, seed, arm.name, workers), func(t *testing.T) {
						t.Parallel()
						r := rand.New(rand.NewSource(seed*1000 + int64(ci)))
						fs := fsim.NewChain(c, faults, chain).SetWorkers(workers)
						orc := NewChain(c, faults, chain)

						si := randVec(r, orc.Nsv(), true)
						seq := randSeq(r, 8+r.Intn(5), c.NumPIs(), true)

						want := orc.Detect(seq, Options{Init: si, ScanOut: true})
						for rep := 0; rep < 3; rep++ {
							if got := fs.Detect(seq, fsim.Options{Init: si, ScanOut: true}); !got.Equal(want) {
								t.Fatalf("rep %d: sets differ: fsim %d, oracle %d",
									rep, got.Count(), want.Count())
							}
						}

						// No-scan sequence grading (the T_0 arm of the paper).
						nsWant := orc.Detect(seq, Options{})
						if nsGot := fs.Detect(seq, fsim.Options{}); !nsGot.Equal(nsWant) {
							t.Fatalf("no-scan sets differ: fsim %d, oracle %d",
								nsGot.Count(), nsWant.Count())
						}

						if arm.name == "fullchain" {
							nilFs := fsim.NewChain(c, faults, nil).SetWorkers(workers)
							if got := nilFs.Detect(seq, fsim.Options{Init: si, ScanOut: true}); !got.Equal(want) {
								t.Fatalf("fsim under a nil chain detects %d, under scan.Full %d", got.Count(), want.Count())
							}
							if got := nilFs.Detect(seq, fsim.Options{}); !got.Equal(nsWant) {
								t.Fatalf("no-scan: fsim under a nil chain detects %d, under scan.Full %d", got.Count(), nsWant.Count())
							}
						}
					})
				}
			}
		}
	}
}

// chainArm is one scan configuration of the differential tests.
type chainArm struct {
	name  string
	chain *scan.Chain
}

// chainArms returns full scan as a nil chain, the partial chain, and
// full scan as the explicit chain scan.Full, in that order.
func chainArms(c *circuit.Circuit, partial *scan.Chain) []chainArm {
	return []chainArm{{"full", nil}, {"partial", partial}, {"fullchain", scan.Full(c.NumFFs())}}
}

// TestDifferentialBatchWidths sweeps the compiled kernel's batch width
// against the scalar reference on roster circuits with several hundred
// collapsed faults. The width follows the target count, so a target set
// of 40 faults runs in one one-word pass, a set of 100 faults in one wide
// pass, and a set of 256 faults and the full list in two or more wide
// passes; every set must grade identically, under full and partial scan.
func TestDifferentialBatchWidths(t *testing.T) {
	for _, name := range []string{"s298", "s344", "b04"} {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		faults := fault.Collapse(c)
		half := make([]int, 0, c.NumFFs()/2)
		for i := 0; i < c.NumFFs()/2; i++ {
			half = append(half, i)
		}
		partial, err := scan.NewChain(c.NumFFs(), half)
		if err != nil {
			t.Fatal(err)
		}
		for ci, chain := range []*scan.Chain{nil, partial} {
			cname := "full"
			if chain != nil {
				cname = "partial"
			}
			t.Run(fmt.Sprintf("%s/%s", name, cname), func(t *testing.T) {
				t.Parallel()
				r := rand.New(rand.NewSource(int64(31 + ci)))
				orc := NewChain(c, faults, chain)
				si := randVec(r, orc.Nsv(), true)
				seq := randSeq(r, 10, c.NumPIs(), true)
				all := orc.Detect(seq, Options{Init: si, ScanOut: true})
				fs := fsim.NewChain(c, faults, chain)
				for _, size := range []int{40, 100, 256, len(faults)} {
					// Detection is per fault, so the reference for a target
					// set is the full-list result restricted to it.
					targets := randTargets(r, len(faults), size)
					want := all.Clone()
					want.IntersectWith(targets)
					got := fs.Detect(seq, fsim.Options{Init: si, ScanOut: true, Targets: targets})
					if !got.Equal(want) {
						t.Fatalf("%d targets: sets differ from oracle: fsim %d, oracle %d",
							size, got.Count(), want.Count())
					}
				}
			})
		}
	}
}

// TestDifferentialGenerated drives the comparison on freshly generated
// circuits outside the roster, so the sweep is not tied to the roster's
// generator parameters, and on workload's constants fixture, whose
// gates read CONST0 and CONST1 nodes the generator never emits.
func TestDifferentialGenerated(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		name := fmt.Sprintf("gen%d", trial)
		if trial == 4 {
			name = "const"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var c *circuit.Circuit
			if trial < 4 {
				c = gen.MustGenerate(gen.Params{
					Name: fmt.Sprintf("diff%d", trial), Seed: int64(900 + trial),
					PIs: 2 + trial, POs: 2 + trial%2, FFs: 3 + 2*trial, Gates: 30 + 25*trial,
				})
			} else {
				var err error
				if c, err = bench.ParseFile(filepath.Join("..", "workload", "testdata", "const.bench")); err != nil {
					t.Fatal(err)
				}
			}
			faults := fault.Collapse(c)
			fs := fsim.New(c, faults).SetWorkers(1 + trial%2*3)
			orc := New(c, faults)
			r := rand.New(rand.NewSource(int64(77 + trial)))
			for rep := 0; rep < 3; rep++ {
				si := randVec(r, c.NumFFs(), true)
				seq := randSeq(r, 6+r.Intn(6), c.NumPIs(), true)
				got := fs.Detect(seq, fsim.Options{Init: si, ScanOut: true})
				want := orc.Detect(seq, Options{Init: si, ScanOut: true})
				if !got.Equal(want) {
					t.Fatalf("rep %d: sets differ: fsim %d, oracle %d",
						rep, got.Count(), want.Count())
				}
			}
		})
	}
}

// TestDifferentialOrdered reruns the sweep with the optimized simulator
// over a seeded permutation of the fault list: which faults share a pass
// is a scheduling detail, so the detected sets, mapped back through the
// permutation, must stay bit-identical to the scalar reference across
// circuits, seeds and worker counts, the survivor-repacking path
// included. The bw arm bounds the pass width the only way it is set,
// through the target count: bw0 grades the whole fault list, bw4 a
// random subset that fits one 4-word pass (at most 255 faults).
func TestDifferentialOrdered(t *testing.T) {
	for _, name := range sweepCircuits {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		faults := fault.Collapse(c)
		for seed := int64(1); seed <= 2; seed++ {
			perm := rand.New(rand.NewSource(seed)).Perm(len(faults))
			for _, workers := range []int{1, 4} {
				for _, words := range []int{0, 4} {
					t.Run(fmt.Sprintf("%s/seed%d/w%d/bw%d", name, seed, workers, words), func(t *testing.T) {
						t.Parallel()
						r := rand.New(rand.NewSource(seed * 313))
						fs := fsim.New(c, permuted(faults, perm)).SetWorkers(workers)
						orc := New(c, faults)
						var targets *fault.Set // bw0: the whole fault list
						if words > 0 {
							targets = randTargets(r, len(faults), min(64*words-1, len(faults)))
						}
						detect := func(seq logic.Sequence, opt fsim.Options) *fault.Set {
							if targets != nil {
								opt.Targets = permuteSet(targets, perm)
							}
							return unpermute(fs.Detect(seq, opt), perm)
						}

						si := randVec(r, orc.Nsv(), true)
						seq := randSeq(r, 8+r.Intn(5), c.NumPIs(), true)

						got := detect(seq, fsim.Options{Init: si, ScanOut: true})
						want := orc.Detect(seq, Options{Init: si, ScanOut: true, Targets: targets})
						if !got.Equal(want) {
							t.Fatalf("permuted sets differ from oracle: fsim %d, oracle %d",
								got.Count(), want.Count())
						}
						// Long no-scan sequence: the repacking fast path fires
						// here; results must not change.
						long := randSeq(r, 40, c.NumPIs(), true)
						if g, w := detect(long, fsim.Options{}), orc.Detect(long, Options{Targets: targets}); !g.Equal(w) {
							t.Fatalf("permuted no-scan sets differ: fsim %d, oracle %d", g.Count(), w.Count())
						}
					})
				}
			}
		}
	}
}

// permuted returns faults in the order perm gives: entry i is
// faults[perm[i]].
func permuted(faults []fault.Fault, perm []int) []fault.Fault {
	out := make([]fault.Fault, len(perm))
	for i, f := range perm {
		out[i] = faults[f]
	}
	return out
}

// permuteSet maps a set over the original fault list onto
// permuted(faults, perm).
func permuteSet(set *fault.Set, perm []int) *fault.Set {
	out := fault.NewSet(len(perm))
	for i, f := range perm {
		if set.Has(f) {
			out.Add(i)
		}
	}
	return out
}

// unpermute maps a set over permuted(faults, perm) back onto the
// original fault list.
func unpermute(set *fault.Set, perm []int) *fault.Set {
	out := fault.NewSet(len(perm))
	set.ForEach(func(i int) { out.Add(perm[i]) })
	return out
}

// TestDifferentialCollapsedExpansion validates the other half of the
// fast path: simulating only the collapsed representatives and expanding
// each detected representative to its equivalence class must reproduce,
// fault for fault, the detection set of simulating the entire uncollapsed
// universe — on both the optimized simulator and the scalar reference.
func TestDifferentialCollapsedExpansion(t *testing.T) {
	for _, name := range sweepCircuits {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, ok := gen.RosterCircuit(name)
			if !ok {
				t.Fatalf("unknown roster circuit %q", name)
			}
			cc := fault.CollapseWithMap(c)
			reps := fsim.New(c, cc.Reps).SetWorkers(2)
			full := fsim.New(c, cc.Universe)
			orc := New(c, cc.Universe)

			r := rand.New(rand.NewSource(41))
			for rep := 0; rep < 3; rep++ {
				si := randVec(r, c.NumFFs(), true)
				seq := randSeq(r, 6+r.Intn(6), c.NumPIs(), true)

				expanded := cc.ExpandSet(reps.Detect(seq, fsim.Options{Init: si, ScanOut: true}))
				direct := full.Detect(seq, fsim.Options{Init: si, ScanOut: true})
				want := orc.Detect(seq, Options{Init: si, ScanOut: true})
				if !direct.Equal(want) {
					t.Fatalf("rep %d: universe fsim differs from oracle (%d vs %d)",
						rep, direct.Count(), want.Count())
				}
				if !expanded.Equal(want) {
					t.Fatalf("rep %d: expanded collapsed set differs from universe (%d vs %d)",
						rep, expanded.Count(), want.Count())
				}
				if got, wantN := cc.ExpandCount(reps.Detect(seq, fsim.Options{Init: si, ScanOut: true})), want.Count(); got != wantN {
					t.Fatalf("rep %d: ExpandCount %d, universe count %d", rep, got, wantN)
				}
			}
		})
	}
}

// TestDifferentialMasks referees fsim on length-1 tests: on small roster
// circuits under the three scan configurations of chainArms, 64 tests are
// graded one by one with DetectTest on one two-worker simulator, and bit
// k of each fault's detection mask must equal the fault's membership in
// the scalar reference's DetectTest on test k. The tests carry X in about
// a sixth of their bits.
func TestDifferentialMasks(t *testing.T) {
	for _, name := range []string{"b01", "b06", "s298"} {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		faults := fault.Collapse(c)
		half := make([]int, 0, c.NumFFs()/2)
		for i := 0; i < c.NumFFs()/2; i++ {
			half = append(half, i)
		}
		partial, err := scan.NewChain(c.NumFFs(), half)
		if err != nil {
			t.Fatal(err)
		}
		for ci, arm := range chainArms(c, partial) {
			chain := arm.chain
			t.Run(fmt.Sprintf("%s/%s", name, arm.name), func(t *testing.T) {
				t.Parallel()
				r := rand.New(rand.NewSource(int64(51 + ci)))
				orc := NewChain(c, faults, chain)
				tests := make([]scan.Test, 64)
				for k := range tests {
					tests[k] = scan.Test{SI: randVec(r, orc.Nsv(), true), Seq: logic.Sequence{randVec(r, c.NumPIs(), true)}}
				}
				fs := fsim.NewChain(c, faults, chain).SetWorkers(2)
				masks := make([]uint64, len(faults))
				for k, tst := range tests {
					fs.DetectTest(tst.SI, tst.Seq, nil).ForEach(func(fi int) { masks[fi] |= 1 << uint(k) })
				}
				for k, tst := range tests {
					want := orc.DetectTest(tst.SI, tst.Seq, nil)
					for fi, m := range masks {
						if got := m>>uint(k)&1 == 1; got != want.Has(fi) {
							t.Fatalf("test %d, fault %d (%s): mask bit %v, oracle %v",
								k, fi, faults[fi].String(c), got, want.Has(fi))
						}
					}
				}
			})
		}
	}
}
