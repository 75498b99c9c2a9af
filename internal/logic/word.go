package logic

// SlotCount is the number of independent simulation slots carried by one
// Word: one bit position per slot.
const SlotCount = 64

// Word is the dual-rail representation of 64 parallel logic values.
// Invariant: Zero & One == 0. A bit set in Zero means that slot carries
// logic 0, a bit set in One means logic 1, neither means X.
type Word struct {
	Zero uint64
	One  uint64
}

// Canonical constant words.
var (
	// AllZero carries logic 0 in every slot.
	AllZero = Word{Zero: ^uint64(0)}
	// AllOne carries logic 1 in every slot.
	AllOne = Word{One: ^uint64(0)}
	// AllX carries X in every slot.
	AllX = Word{}
)

// FromValue broadcasts a scalar value to all 64 slots.
func FromValue(v Value) Word {
	switch v {
	case Zero:
		return AllZero
	case One:
		return AllOne
	}
	return AllX
}

// Get returns the scalar value carried by slot k.
func (w Word) Get(k uint) Value {
	m := uint64(1) << k
	switch {
	case w.Zero&m != 0:
		return Zero
	case w.One&m != 0:
		return One
	}
	return X
}

// Set returns w with slot k forced to v.
func (w Word) Set(k uint, v Value) Word {
	m := uint64(1) << k
	w.Zero &^= m
	w.One &^= m
	switch v {
	case Zero:
		w.Zero |= m
	case One:
		w.One |= m
	}
	return w
}

// Valid reports whether the dual-rail invariant holds.
func (w Word) Valid() bool { return w.Zero&w.One == 0 }

// Not returns the slot-wise complement.
func (w Word) Not() Word { return Word{Zero: w.One, One: w.Zero} }

// And returns the slot-wise three-valued AND.
func (a Word) And(b Word) Word {
	return Word{Zero: a.Zero | b.Zero, One: a.One & b.One}
}

// Or returns the slot-wise three-valued OR.
func (a Word) Or(b Word) Word {
	return Word{Zero: a.Zero & b.Zero, One: a.One | b.One}
}

// Xor returns the slot-wise three-valued XOR. Slots where either operand
// is X yield X.
func (a Word) Xor(b Word) Word {
	return Word{
		Zero: (a.Zero & b.Zero) | (a.One & b.One),
		One:  (a.Zero & b.One) | (a.One & b.Zero),
	}
}

// DiffDefinite returns a mask of slots where a and b both carry definite
// values and those values differ. This is the fault-detection criterion:
// a difference involving X does not count as a detection.
func DiffDefinite(a, b Word) uint64 {
	return (a.Zero & b.One) | (a.One & b.Zero)
}

// BroadcastSlot returns a word carrying slot k's value of w in all slots.
func (w Word) BroadcastSlot(k uint) Word { return FromValue(w.Get(k)) }

// Equal reports slot-for-slot equality (X == X).
func (a Word) Equal(b Word) bool { return a == b }

// Merge overwrites the slots selected by m in w with the corresponding
// slots of src, leaving other slots unchanged.
func (w Word) Merge(src Word, m uint64) Word {
	return Word{
		Zero: (w.Zero &^ m) | (src.Zero & m),
		One:  (w.One &^ m) | (src.One & m),
	}
}
