// Package logic provides the value system used throughout the library:
// a scalar four-valued logic (0, 1, X, Z) and a dual-rail, 64-slot
// bit-parallel representation of the same values.
//
// The dual-rail Word type is the workhorse of every simulator in this
// repository. Each signal is represented by two 64-bit machine words
// (Zero, One); bit k of Zero set means slot k carries logic 0, bit k of
// One set means slot k carries logic 1, neither set means X. A slot is a
// pattern in parallel-pattern mode and a faulty machine in parallel-fault
// mode. Gate evaluation over 64 slots costs a handful of word operations.
package logic

import "fmt"

// Value is a scalar logic value.
type Value uint8

// The four scalar logic values. Z (high impedance) is accepted by parsers
// and treated as X by the simulators; it never originates inside the
// gate-evaluation routines.
const (
	Zero Value = iota
	One
	X
	Z
)

// String returns the conventional single-character spelling of v.
func (v Value) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case X:
		return "x"
	case Z:
		return "z"
	}
	return fmt.Sprintf("Value(%d)", uint8(v))
}

// IsBinary reports whether v is a definite 0 or 1.
func (v Value) IsBinary() bool { return v == Zero || v == One }

// Not returns the logical complement of v. X and Z invert to X.
func (v Value) Not() Value {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	}
	return X
}

// And returns the three-valued AND of a and b (Z treated as X).
func (a Value) And(b Value) Value {
	if a == Zero || b == Zero {
		return Zero
	}
	if a == One && b == One {
		return One
	}
	return X
}

// Or returns the three-valued OR of a and b (Z treated as X).
func (a Value) Or(b Value) Value {
	if a == One || b == One {
		return One
	}
	if a == Zero && b == Zero {
		return Zero
	}
	return X
}

// Xor returns the three-valued XOR of a and b (Z treated as X).
func (a Value) Xor(b Value) Value {
	if !a.IsBinary() || !b.IsBinary() {
		return X
	}
	if a == b {
		return Zero
	}
	return One
}

// ParseValue converts a character to a Value. It accepts 0, 1, x/X and
// z/Z.
func ParseValue(c byte) (Value, error) {
	switch c {
	case '0':
		return Zero, nil
	case '1':
		return One, nil
	case 'x', 'X':
		return X, nil
	case 'z', 'Z':
		return Z, nil
	}
	return X, fmt.Errorf("logic: invalid value character %q", c)
}

// Vector is an ordered assignment of scalar values, e.g. one primary-input
// vector or one scan state.
type Vector []Value

// NewVector returns a Vector of n values all set to v.
func NewVector(n int, v Value) Vector {
	vec := make(Vector, n)
	for i := range vec {
		vec[i] = v
	}
	return vec
}

// ParseVector parses a string of value characters such as "01x10".
func ParseVector(s string) (Vector, error) {
	vec := make(Vector, len(s))
	for i := 0; i < len(s); i++ {
		v, err := ParseValue(s[i])
		if err != nil {
			return nil, fmt.Errorf("logic: position %d: %v", i, err)
		}
		vec[i] = v
	}
	return vec, nil
}

// String renders the vector as a string of value characters.
func (vec Vector) String() string {
	buf := make([]byte, len(vec))
	for i, v := range vec {
		buf[i] = v.String()[0]
	}
	return string(buf)
}

// Clone returns an independent copy of the vector.
func (vec Vector) Clone() Vector {
	out := make(Vector, len(vec))
	copy(out, vec)
	return out
}

// Equal reports whether two vectors are identical value-for-value.
func (vec Vector) Equal(other Vector) bool {
	if len(vec) != len(other) {
		return false
	}
	for i, v := range vec {
		if v != other[i] {
			return false
		}
	}
	return true
}

// Sequence is an ordered list of input vectors applied on consecutive
// functional clock cycles.
type Sequence []Vector

// Clone returns a deep copy of the sequence.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	for i, v := range s {
		out[i] = v.Clone()
	}
	return out
}

// Len returns the number of vectors in the sequence. It exists for
// symmetry with the paper's L(T) notation.
func (s Sequence) Len() int { return len(s) }
