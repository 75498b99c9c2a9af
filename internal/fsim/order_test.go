package fsim

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/seqgen"
)

// Permuted returns faults in the order perm gives: entry i is
// faults[perm[i]]. A run packs its passes in fault-list order, so a
// simulator over the permuted list packs them in perm's order.
func Permuted(faults []fault.Fault, perm []int) []fault.Fault {
	out := make([]fault.Fault, len(perm))
	for i, f := range perm {
		out[i] = faults[f]
	}
	return out
}

// PermuteSet maps a set over the original fault list onto the list
// Permuted(faults, perm) returns.
func PermuteSet(set *fault.Set, perm []int) *fault.Set {
	out := fault.NewSet(len(perm))
	for i, f := range perm {
		if set.Has(f) {
			out.Add(i)
		}
	}
	return out
}

// Unpermute maps a set over Permuted(faults, perm) back onto the
// original fault list.
func Unpermute(set *fault.Set, perm []int) *fault.Set {
	out := fault.NewSet(len(perm))
	set.ForEach(func(i int) { out.Add(perm[i]) })
	return out
}

// TestOrderInvariantResults reruns the same detection queries over
// several permutations of the fault list (including reversed) and at
// several worker counts: which faults share a pass is a scheduling
// detail, so every detected set, mapped back through the permutation,
// must be bit-identical.
func TestOrderInvariantResults(t *testing.T) {
	c, ok := gen.RosterCircuit("s298")
	if !ok {
		t.Fatal("unknown roster circuit s298")
	}
	faults := fault.Collapse(c)
	n := len(faults)
	seq := seqgen.Random(c, 40, 3)

	ref := New(c, faults).Detect(seq, Options{})
	targets := fault.NewSet(n)
	for i := 0; i < n; i += 3 {
		targets.Add(i)
	}
	refSub := ref.Clone()
	refSub.IntersectWith(targets)

	rev := make([]int, n)
	for i := range rev {
		rev[i] = n - 1 - i
	}
	perms := [][]int{rev, rand.New(rand.NewSource(11)).Perm(n)}
	for pi, perm := range perms {
		for _, workers := range []int{1, 4} {
			s := New(c, Permuted(faults, perm)).SetWorkers(workers)
			got := Unpermute(s.Detect(seq, Options{}), perm)
			if !got.Equal(ref) {
				t.Errorf("perm %d, workers %d: detected set differs from ascending order", pi, workers)
			}
			// A targeted query detects exactly the targets the full run
			// detects: no non-target leaks into the result.
			sub := Unpermute(s.Detect(seq, Options{Targets: PermuteSet(targets, perm)}), perm)
			if !sub.Equal(refSub) {
				t.Errorf("perm %d, workers %d: targeted run detects %d faults, the full run %d of the targets", pi, workers, sub.Count(), refSub.Count())
			}
		}
	}
}
