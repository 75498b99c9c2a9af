package scan

import (
	"testing"

	"repro/internal/logic"
)

// vec parses a value string such as "01x".
func vec(s string) logic.Vector {
	v, err := logic.ParseVector(s)
	if err != nil {
		panic(err)
	}
	return v
}

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(3, []int{0, 2}); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
	if _, err := NewChain(3, []int{0, 3}); err == nil {
		t.Error("out-of-range position accepted")
	}
	if _, err := NewChain(3, []int{-1}); err == nil {
		t.Error("negative position accepted")
	}
	if _, err := NewChain(3, []int{1, 1}); err == nil {
		t.Error("duplicate position accepted")
	}
}

func TestNewChainCopiesInput(t *testing.T) {
	src := []int{2, 0}
	ch, err := NewChain(3, src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 1
	if ch.FFs[0] != 2 {
		t.Error("NewChain aliases caller slice")
	}
}

func TestChainNsvAndString(t *testing.T) {
	ch, _ := NewChain(5, []int{4, 0, 2})
	if ch.Nsv() != 3 {
		t.Errorf("Nsv = %d, want 3", ch.Nsv())
	}
	if ch.String() != "chain(3 FFs)" {
		t.Errorf("String = %q", ch.String())
	}
}

func TestFull(t *testing.T) {
	ch := Full(4)
	if ch.Nsv() != 4 {
		t.Errorf("Nsv = %d, want 4", ch.Nsv())
	}
	for k, ff := range ch.FFs {
		if ff != k {
			t.Fatalf("FFs = %v, want circuit order", ch.FFs)
		}
	}
	if len(Full(0).FFs) != 0 {
		t.Error("Full(0) scans flip-flops")
	}
}

func TestOrFull(t *testing.T) {
	if got := OrFull(nil, 3); got.Nsv() != 3 || got.State(vec("101")).String() != "101" {
		t.Errorf("OrFull(nil, 3) = %v, not full scan", got)
	}
	ch, _ := NewChain(3, []int{1})
	if OrFull(ch, 3) != ch {
		t.Error("OrFull replaced a non-nil chain")
	}
}

// TestState covers the scan-in rule: chain position k loads flip-flop
// FFs[k]; unscanned flip-flops and positions past len(si) are X.
func TestState(t *testing.T) {
	rev, _ := NewChain(3, []int{2, 0}) // SI[0] -> q2, SI[1] -> q0
	pair, _ := NewChain(3, []int{0, 1})
	for _, tc := range []struct {
		name string
		ch   *Chain
		si   string
		want string
	}{
		{"reversed", rev, "10", "0x1"},
		{"reversed short", rev, "1", "xx1"},
		{"reversed nil", rev, "", "xxx"},
		{"short", pair, "1", "1xx"},
		{"long", pair, "0110", "01x"},
		{"full", Full(3), "011", "011"},
		{"full short", Full(3), "0", "0xx"},
		{"full nil", Full(3), "", "xxx"},
	} {
		var si logic.Vector // "" stands for a nil scan-in vector
		if tc.si != "" {
			si = vec(tc.si)
		}
		if got := tc.ch.State(si).String(); got != tc.want {
			t.Errorf("%s: State(%q) = %s, want %s", tc.name, tc.si, got, tc.want)
		}
	}
}
