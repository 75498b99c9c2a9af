package scan

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

func mkTest(lens int) Test {
	seq := make(logic.Sequence, lens)
	for i := range seq {
		seq[i] = logic.NewVector(2, logic.Zero)
	}
	return Test{SI: logic.NewVector(3, logic.One), Seq: seq}
}

func TestCyclesFormula(t *testing.T) {
	// k=2 tests with lengths 3 and 1, nsv=5: (2+1)*5 + 4 = 19.
	s := NewSet(mkTest(3), mkTest(1))
	if got := s.Cycles(5); got != 19 {
		t.Errorf("Cycles = %d, want 19", got)
	}
}

func TestCyclesEmptySet(t *testing.T) {
	s := NewSet()
	if got := s.Cycles(10); got != 0 {
		t.Errorf("empty set cycles = %d, want 0", got)
	}
}

func TestCyclesSingleTestMatchesPaperBound(t *testing.T) {
	// The paper's best case: one test of length N costs 2*Nsv + N.
	s := NewSet(mkTest(100))
	if got := s.Cycles(21); got != 2*21+100 {
		t.Errorf("single-test cycles = %d, want %d", got, 2*21+100)
	}
}

func TestTotalVectorsAndNumTests(t *testing.T) {
	s := NewSet(mkTest(4), mkTest(0), mkTest(7))
	if s.NumTests() != 3 {
		t.Errorf("NumTests = %d", s.NumTests())
	}
	if s.TotalVectors() != 11 {
		t.Errorf("TotalVectors = %d, want 11", s.TotalVectors())
	}
}

func TestAtSpeedStats(t *testing.T) {
	s := NewSet(mkTest(1), mkTest(5), mkTest(3))
	st := s.AtSpeed()
	if math.Abs(st.Average-3.0) > 1e-9 || st.Min != 1 || st.Max != 5 {
		t.Errorf("AtSpeed = %+v", st)
	}
	if got := st.String(); !strings.Contains(got, "3.00") || !strings.Contains(got, "1-5") {
		t.Errorf("String = %q", got)
	}
}

func TestAtSpeedEmpty(t *testing.T) {
	st := NewSet().AtSpeed()
	if st.Average != 0 || st.Min != 0 || st.Max != 0 {
		t.Errorf("empty AtSpeed = %+v", st)
	}
}

func TestCloneDeep(t *testing.T) {
	s := NewSet(mkTest(2))
	c := s.Clone()
	c.Tests[0].SI[0] = logic.Zero
	c.Tests[0].Seq[0][0] = logic.One
	if s.Tests[0].SI[0] != logic.One {
		t.Error("Clone aliases SI")
	}
	if s.Tests[0].Seq[0][0] != logic.Zero {
		t.Error("Clone aliases Seq")
	}
}

func TestStrings(t *testing.T) {
	tt := mkTest(2)
	if !strings.Contains(tt.String(), "L=2") {
		t.Errorf("Test.String = %q", tt.String())
	}
	s := NewSet(tt)
	if !strings.Contains(s.String(), "1 tests") {
		t.Errorf("Set.String = %q", s.String())
	}
}

// Property: combining two tests the way [4] does (drop one scan
// operation, concatenate sequences) always reduces Cycles by exactly nsv.
func TestCombiningReducesCyclesByNsv(t *testing.T) {
	f := func(l1, l2 uint8, nsvRaw uint8) bool {
		nsv := int(nsvRaw%50) + 1
		a, b := mkTest(int(l1%40)), mkTest(int(l2%40))
		before := NewSet(a, b).Cycles(nsv)
		combined := Test{SI: a.SI, Seq: append(a.Seq.Clone(), b.Seq...)}
		after := NewSet(combined).Cycles(nsv)
		return before-after == nsv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Cycles is monotone in the number of tests for fixed total
// vector count (fewer tests is never worse).
func TestCyclesMonotoneInTestCount(t *testing.T) {
	f := func(nRaw, nsvRaw uint8) bool {
		n := int(nRaw%10) + 2
		nsv := int(nsvRaw%100) + 1
		// n tests of length 1 vs 1 test of length n.
		many := &Set{}
		for i := 0; i < n; i++ {
			many.Tests = append(many.Tests, mkTest(1))
		}
		one := NewSet(mkTest(n))
		return one.Cycles(nsv) <= many.Cycles(nsv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
