package logic

// WordVec is a batch of W consecutive dual-rail words carrying 64*W
// parallel simulation slots for one signal. Slot k lives in word k/64 at
// bit k%64. It is the value unit of the compiled batch kernel in package
// sim: the kernel evaluates one WordVec per gate, so a single pass over
// an input sequence grades up to 64*W-1 faulty machines.
//
// A WordVec is an ordinary slice; subslicing an arena of words is the
// intended way to build one.
type WordVec []Word

// Slots returns the number of simulation slots carried by v.
func (v WordVec) Slots() int { return len(v) * SlotCount }

// Get returns the scalar value carried by slot k.
func (v WordVec) Get(k int) Value { return v[k>>6].Get(uint(k & 63)) }

// Set forces slot k to val in place.
func (v WordVec) Set(k int, val Value) {
	v[k>>6] = v[k>>6].Set(uint(k&63), val)
}

// Fill sets every word of v to w (broadcasting one 64-slot pattern).
func (v WordVec) Fill(w Word) {
	for i := range v {
		v[i] = w
	}
}

// Clone returns an independent copy of v.
func (v WordVec) Clone() WordVec {
	out := make(WordVec, len(v))
	copy(out, v)
	return out
}

// Valid reports whether the dual-rail invariant holds in every word.
func (v WordVec) Valid() bool {
	for _, w := range v {
		if !w.Valid() {
			return false
		}
	}
	return true
}

// Equal reports slot-for-slot equality (X == X) of two equal-width
// vectors.
func (v WordVec) Equal(o WordVec) bool {
	if len(v) != len(o) {
		return false
	}
	for i, w := range v {
		if w != o[i] {
			return false
		}
	}
	return true
}
