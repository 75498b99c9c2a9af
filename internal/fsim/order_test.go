package fsim

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/samples"
	"repro/internal/seqgen"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestSetOrderValidation(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	s := New(c, faults)
	n := len(faults)

	mustPanic(t, "short permutation", func() { s.SetOrder(make([]int, n-1)) })
	mustPanic(t, "long permutation", func() { s.SetOrder(make([]int, n+1)) })

	dup := make([]int, n)
	for i := range dup {
		dup[i] = i
	}
	dup[0] = 1 // 1 appears twice, 0 never
	mustPanic(t, "duplicate entry", func() { s.SetOrder(dup) })

	oob := make([]int, n)
	for i := range oob {
		oob[i] = i
	}
	oob[n-1] = n
	mustPanic(t, "out-of-range entry", func() { s.SetOrder(oob) })

	neg := make([]int, n)
	for i := range neg {
		neg[i] = i
	}
	neg[0] = -1
	mustPanic(t, "negative entry", func() { s.SetOrder(neg) })

	if s.Order() != nil {
		t.Fatal("failed SetOrder calls must not install an order")
	}
}

func TestSetOrderInstallAndRestore(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	s := New(c, faults)
	n := len(faults)

	perm := rand.New(rand.NewSource(7)).Perm(n)
	if got := s.SetOrder(perm); got != s {
		t.Fatal("SetOrder must return the receiver for chaining")
	}
	got := s.Order()
	for i := range perm {
		if got[i] != perm[i] {
			t.Fatalf("Order()[%d] = %d, want %d", i, got[i], perm[i])
		}
	}

	// The simulator must hold a copy: mutating the caller's slice after
	// installation must not corrupt the installed permutation.
	saved := perm[0]
	perm[0] = perm[1]
	if s.Order()[0] != saved {
		t.Fatal("SetOrder aliased the caller's slice")
	}
	perm[0] = saved

	s.SetOrder(nil)
	if s.Order() != nil {
		t.Fatal("SetOrder(nil) must restore ascending order")
	}
}

// TestOrderInvariantResults reruns the same detection queries under
// several permutations (including reversed) and worker counts: the
// traversal order is an internal scheduling detail, so
// every detected set must be bit-identical and indexed canonically.
func TestOrderInvariantResults(t *testing.T) {
	c, ok := gen.RosterCircuit("s298")
	if !ok {
		t.Fatal("unknown roster circuit s298")
	}
	faults := fault.Collapse(c)
	n := len(faults)
	seq := seqgen.Random(c, 40, 3)

	ref := New(c, faults).Detect(seq, Options{})

	rev := make([]int, n)
	for i := range rev {
		rev[i] = n - 1 - i
	}
	perms := [][]int{rev, rand.New(rand.NewSource(11)).Perm(n)}
	for pi, perm := range perms {
		for _, workers := range []int{1, 4} {
			s := New(c, faults).SetWorkers(workers).SetOrder(perm)
			got := s.Detect(seq, Options{})
			if !got.Equal(ref) {
				t.Errorf("perm %d, workers %d: detected set differs from ascending order", pi, workers)
			}
			// Targeted query with a subset: order filters must not leak
			// non-targets into the result.
			targets := fault.NewSet(n)
			for i := 0; i < n; i += 3 {
				targets.Add(i)
			}
			sub := s.Detect(seq, Options{Targets: targets})
			sub.ForEach(func(i int) {
				if !targets.Has(i) {
					t.Errorf("perm %d: non-target fault %d reported detected", pi, i)
				}
				if !ref.Has(i) {
					t.Errorf("perm %d: targeted run detected fault %d the full run did not", pi, i)
				}
			})
		}
	}
}
