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
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/scan"
)

// patterns is the number of random scan tests sampled. Each is a
// length-1 test (one capture cycle plus scan-out already separates easy
// from hard faults well), and all of them are graded in one
// pattern-parallel pass (fsim.Simulator.DetectMasks), one test per slot.
const patterns = 32

// Options configures the random-pattern sampling.
type Options struct {
	// Seed makes the sample reproducible.
	Seed int64
}

// Compute returns the accidental-detection index of every fault in s's
// list: the number of sampled random scan tests that detect it. The
// sample is drawn from opt.Seed, per test the scan-in bits and then the
// PI bits, so scores are reproducible; they do not depend on worker
// count (detection is exact).
func Compute(s *fsim.Simulator, opt Options) []int {
	r := rand.New(rand.NewSource(opt.Seed))
	nsv, npi := s.Nsv(), s.Circuit().NumPIs()
	tests := make([]scan.Test, patterns)
	for p := range tests {
		si := make(logic.Vector, nsv)
		for i := range si {
			si[i] = logic.Value(r.Intn(2))
		}
		vec := make(logic.Vector, npi)
		for i := range vec {
			vec[i] = logic.Value(r.Intn(2))
		}
		tests[p] = scan.Test{SI: si, Seq: logic.Sequence{vec}}
	}
	masks := s.DetectMasks(tests)
	scores := make([]int, len(masks))
	for fi, m := range masks {
		scores[fi] = bits.OnesCount64(m)
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
