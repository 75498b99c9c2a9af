// Package adi computes the accidental-detection index of Pomeranz &
// Reddy (arXiv:0710.4637) for a fault list: how many of a fixed sample
// of random scan tests detect each fault. Faults with a high index are
// detected "by accident" by almost any test; simulating them first makes
// fault dropping shed most of the list within the first few tests, so
// parallel-fault passes hit their all-detected early exit almost
// immediately.
//
// The index is a pure ordering heuristic: Install permutes only the
// simulation traversal order (fsim.Simulator.SetOrder), never the fault
// indices, so every detection set, table and N_cyc stays bit-identical
// to the unordered run.
package adi

import (
	"math/rand"
	"sort"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
)

// patterns is the number of random scan tests sampled. Each test costs
// one full-universe grading pass set, so the budget is the dominant cost
// of Compute.
const patterns = 32

// seqLen is the functional sequence length of each sampled test: one
// capture cycle plus scan-out already separates easy from hard faults
// well.
const seqLen = 1

// Options configures the random-pattern sampling.
type Options struct {
	// Seed makes the sample reproducible.
	Seed int64
}

// Compute returns the accidental-detection index of every fault in s's
// list: the number of sampled random scan tests that detect it. The
// sample is drawn from opt.Seed, so scores are reproducible; they do not
// depend on worker count or pass packing (detection is exact).
func Compute(s *fsim.Simulator, opt Options) []int {
	r := rand.New(rand.NewSource(opt.Seed))
	scores := make([]int, s.NumFaults())
	nsv, npi := s.Nsv(), s.Circuit().NumPIs()
	for p := 0; p < patterns; p++ {
		si := make(logic.Vector, nsv)
		for i := range si {
			si[i] = logic.Value(r.Intn(2))
		}
		seq := make(logic.Sequence, seqLen)
		for u := range seq {
			seq[u] = make(logic.Vector, npi)
			for i := range seq[u] {
				seq[u][i] = logic.Value(r.Intn(2))
			}
		}
		det := s.Detect(seq, fsim.Options{Init: si, ScanOut: true})
		det.ForEach(func(fi int) { scores[fi]++ })
	}
	return scores
}

// Order returns the simulation-order permutation implied by the scores:
// descending score (most accidentally detectable first), then ascending
// tie value (dominance-poor, checkpoint-like faults first among equals),
// then ascending fault index. tie may be nil. The result is a
// permutation of [0, len(scores)) suitable for fsim.SetOrder.
func Order(scores, tie []int) []int {
	perm := make([]int, len(scores))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		i, j := perm[a], perm[b]
		if scores[i] != scores[j] {
			return scores[i] > scores[j]
		}
		if tie != nil && tie[i] != tie[j] {
			return tie[i] < tie[j]
		}
		return i < j
	})
	return perm
}

// ReorderByCounts incrementally re-ranks an existing simulation order
// from a detection ledger's live per-fault counts (fsim.Ledger.Counts):
// faults detected by many tests of the evolving set move to the front,
// where fault dropping and the per-pass early exit shed them fastest.
// The sort is stable over prev, so the original ADI rank remains the
// tie-break, and the result is again a permutation of the full fault
// list — like Order, it is a pure pass-packing hint and leaves every
// detection result bit-identical. This replaces fresh random sampling
// when detection counts are already on hand (the compaction engines
// re-rank between combining rounds as dropping shrinks the live set).
func ReorderByCounts(prev, counts []int) []int {
	perm := append([]int(nil), prev...)
	sort.SliceStable(perm, func(a, b int) bool {
		return counts[perm[a]] > counts[perm[b]]
	})
	return perm
}

// Install computes ADI scores for s's fault list, breaks ties with the
// structural dominator degree, and installs the resulting order on s. It
// returns the installed permutation. The sampling runs on s itself, so
// its cost shows up in s.Stats() like any other simulation work.
func Install(s *fsim.Simulator, opt Options) []int {
	scores := Compute(s, opt)
	deg := fault.DominatorDegrees(s.Circuit(), s.Faults())
	perm := Order(scores, deg)
	s.SetOrder(perm)
	return perm
}
