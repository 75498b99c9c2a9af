package logic

import (
	"testing"
	"testing/quick"
)

func TestValueString(t *testing.T) {
	cases := map[Value]string{Zero: "0", One: "1", X: "x", Z: "z", Value(9): "Value(9)"}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("Value(%d).String() = %q, want %q", v, got, want)
		}
	}
}

func TestValueIsBinary(t *testing.T) {
	if !Zero.IsBinary() || !One.IsBinary() {
		t.Error("0 and 1 must be binary")
	}
	if X.IsBinary() || Z.IsBinary() {
		t.Error("X and Z must not be binary")
	}
}

func TestScalarNot(t *testing.T) {
	cases := map[Value]Value{Zero: One, One: Zero, X: X, Z: X}
	for in, want := range cases {
		if got := in.Not(); got != want {
			t.Errorf("Not(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestScalarAndTruthTable(t *testing.T) {
	type row struct{ a, b, want Value }
	rows := []row{
		{Zero, Zero, Zero}, {Zero, One, Zero}, {Zero, X, Zero},
		{One, Zero, Zero}, {One, One, One}, {One, X, X},
		{X, Zero, Zero}, {X, One, X}, {X, X, X},
	}
	for _, r := range rows {
		if got := r.a.And(r.b); got != r.want {
			t.Errorf("And(%v,%v) = %v, want %v", r.a, r.b, got, r.want)
		}
	}
}

func TestScalarOrTruthTable(t *testing.T) {
	type row struct{ a, b, want Value }
	rows := []row{
		{Zero, Zero, Zero}, {Zero, One, One}, {Zero, X, X},
		{One, Zero, One}, {One, One, One}, {One, X, One},
		{X, Zero, X}, {X, One, One}, {X, X, X},
	}
	for _, r := range rows {
		if got := r.a.Or(r.b); got != r.want {
			t.Errorf("Or(%v,%v) = %v, want %v", r.a, r.b, got, r.want)
		}
	}
}

func TestScalarXorTruthTable(t *testing.T) {
	type row struct{ a, b, want Value }
	rows := []row{
		{Zero, Zero, Zero}, {Zero, One, One}, {Zero, X, X},
		{One, Zero, One}, {One, One, Zero}, {One, X, X},
		{X, Zero, X}, {X, One, X}, {X, X, X},
	}
	for _, r := range rows {
		if got := r.a.Xor(r.b); got != r.want {
			t.Errorf("Xor(%v,%v) = %v, want %v", r.a, r.b, got, r.want)
		}
	}
}

func TestParseValue(t *testing.T) {
	good := map[byte]Value{'0': Zero, '1': One, 'x': X, 'X': X, 'z': Z, 'Z': Z}
	for c, want := range good {
		got, err := ParseValue(c)
		if err != nil || got != want {
			t.Errorf("ParseValue(%q) = %v, %v; want %v, nil", c, got, err, want)
		}
	}
	if _, err := ParseValue('?'); err == nil {
		t.Error("ParseValue('?') should fail")
	}
}

func TestParseVectorRoundTrip(t *testing.T) {
	const s = "01x1z0"
	v, err := ParseVector(s)
	if err != nil {
		t.Fatalf("ParseVector(%q): %v", s, err)
	}
	if got := v.String(); got != s {
		t.Errorf("round trip = %q, want %q", got, s)
	}
	if _, err := ParseVector("01?"); err == nil {
		t.Error("ParseVector with bad char should fail")
	}
}

func TestNewVector(t *testing.T) {
	v := NewVector(5, One)
	if len(v) != 5 {
		t.Fatalf("len = %d, want 5", len(v))
	}
	for i, x := range v {
		if x != One {
			t.Errorf("v[%d] = %v, want 1", i, x)
		}
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{Zero, One, X}
	c := v.Clone()
	c[0] = One
	if v[0] != Zero {
		t.Error("Clone must not alias the original")
	}
	if !v.Equal(Vector{Zero, One, X}) {
		t.Error("original mutated")
	}
}

func TestVectorEqual(t *testing.T) {
	a := Vector{Zero, One}
	if a.Equal(Vector{Zero}) {
		t.Error("vectors of different length must not be equal")
	}
	if a.Equal(Vector{Zero, X}) {
		t.Error("different values must not be equal")
	}
	if !a.Equal(Vector{Zero, One}) {
		t.Error("identical vectors must be equal")
	}
}

func TestSequenceClone(t *testing.T) {
	s := Sequence{{Zero, One}, {X, X}}
	c := s.Clone()
	c[0][0] = One
	if s[0][0] != Zero {
		t.Error("Sequence.Clone must deep-copy vectors")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

// Property: scalar De Morgan — Not(And(a,b)) == Or(Not(a), Not(b)).
func TestScalarDeMorganProperty(t *testing.T) {
	f := func(ra, rb uint8) bool {
		a, b := Value(ra%3), Value(rb%3)
		return a.And(b).Not() == a.Not().Or(b.Not())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: XOR is commutative and X-absorbing.
func TestScalarXorProperties(t *testing.T) {
	f := func(ra, rb uint8) bool {
		a, b := Value(ra%3), Value(rb%3)
		if a.Xor(b) != b.Xor(a) {
			return false
		}
		if (a == X || b == X) && a.Xor(b) != X {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
