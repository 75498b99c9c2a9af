package logic

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomWord generates a valid dual-rail word from an rng.
func randomWord(r *rand.Rand) Word {
	defined := r.Uint64()
	ones := r.Uint64() & defined
	return Word{Zero: defined &^ ones, One: ones}
}

func TestWordConstants(t *testing.T) {
	for k := uint(0); k < SlotCount; k++ {
		if AllZero.Get(k) != Zero {
			t.Fatalf("AllZero slot %d != 0", k)
		}
		if AllOne.Get(k) != One {
			t.Fatalf("AllOne slot %d != 1", k)
		}
		if AllX.Get(k) != X {
			t.Fatalf("AllX slot %d != X", k)
		}
	}
}

func TestWordFromValue(t *testing.T) {
	if FromValue(Zero) != AllZero || FromValue(One) != AllOne || FromValue(X) != AllX {
		t.Error("FromValue broadcast mismatch")
	}
	if FromValue(Z) != AllX {
		t.Error("FromValue(Z) should broadcast X")
	}
}

func TestWordSetGet(t *testing.T) {
	w := AllX
	w = w.Set(3, One).Set(7, Zero).Set(63, One)
	if w.Get(3) != One || w.Get(7) != Zero || w.Get(63) != One {
		t.Error("Set/Get mismatch")
	}
	if w.Get(0) != X {
		t.Error("untouched slot should be X")
	}
	w = w.Set(3, X)
	if w.Get(3) != X {
		t.Error("Set to X should clear both rails")
	}
	if !w.Valid() {
		t.Error("invariant violated after Set")
	}
}

// Exhaustively cross-check every word gate op against the scalar op,
// one slot at a time, for all 3x3 input combinations.
func TestWordOpsMatchScalar(t *testing.T) {
	vals := []Value{Zero, One, X}
	type op struct {
		name   string
		word   func(a, b Word) Word
		scalar func(a, b Value) Value
	}
	ops := []op{
		{"And", Word.And, Value.And},
		{"Or", Word.Or, Value.Or},
		{"Xor", Word.Xor, Value.Xor},
	}
	for _, o := range ops {
		for _, av := range vals {
			for _, bv := range vals {
				// Place the combination in several slots to catch shift bugs.
				for _, k := range []uint{0, 1, 31, 63} {
					a := AllX.Set(k, av)
					b := AllX.Set(k, bv)
					got := o.word(a, b).Get(k)
					want := o.scalar(av, bv)
					if got != want {
						t.Errorf("%s(%v,%v) slot %d = %v, want %v", o.name, av, bv, k, got, want)
					}
				}
			}
		}
	}
}

func TestWordNotMatchesScalar(t *testing.T) {
	for _, v := range []Value{Zero, One, X} {
		w := AllX.Set(5, v)
		if got := w.Not().Get(5); got != v.Not() {
			t.Errorf("Not(%v) = %v, want %v", v, got, v.Not())
		}
	}
}

func TestDiffDefinite(t *testing.T) {
	a := AllX.Set(0, Zero).Set(1, One).Set(2, Zero).Set(3, X).Set(4, One)
	b := AllX.Set(0, One).Set(1, One).Set(2, X).Set(3, One).Set(4, Zero)
	// Slots 0 and 4 differ with both definite. Slot 2 and 3 involve X.
	want := uint64(1)<<0 | uint64(1)<<4
	if got := DiffDefinite(a, b); got != want {
		t.Errorf("DiffDefinite = %#x, want %#x", got, want)
	}
}

func TestWordMerge(t *testing.T) {
	m := uint64(0xF)
	merged := AllZero.Merge(AllOne, m)
	if merged.Get(0) != One || merged.Get(4) != Zero {
		t.Error("Merge did not splice slots correctly")
	}
	if !merged.Valid() {
		t.Error("Merge broke the dual-rail invariant")
	}
}

func TestBroadcastSlot(t *testing.T) {
	w := AllX.Set(9, One)
	if w.BroadcastSlot(9) != AllOne {
		t.Error("BroadcastSlot(9) should be all ones")
	}
	if w.BroadcastSlot(8) != AllX {
		t.Error("BroadcastSlot(8) should be all X")
	}
}

// Property: all word operations preserve the dual-rail invariant.
func TestWordOpsPreserveInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randomWord(r), randomWord(r)
		results := []Word{a.And(b), a.Or(b), a.Xor(b), a.Not()}
		for _, w := range results {
			if !w.Valid() {
				return false
			}
		}
		return true
	}
	for i := 0; i < 2000; i++ {
		if !f() {
			t.Fatal("dual-rail invariant violated")
		}
	}
}

// Property: word De Morgan over random valid words.
func TestWordDeMorganProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(out []reflect.Value, _ *rand.Rand) {
			for i := range out {
				out[i] = reflect.ValueOf(randomWord(r))
			}
		},
	}
	f := func(a, b Word) bool {
		return a.And(b).Not() == a.Not().Or(b.Not()) &&
			a.Or(b).Not() == a.Not().And(b.Not())
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Xor(a, a) is 0 wherever a is defined and X elsewhere.
func TestWordXorSelfProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a := randomWord(r)
		x := a.Xor(a)
		if x.One != 0 {
			t.Fatal("Xor(a,a) produced a 1")
		}
		if x.Zero != a.Zero|a.One {
			t.Fatal("Xor(a,a) should be 0 exactly where a is defined")
		}
	}
}
