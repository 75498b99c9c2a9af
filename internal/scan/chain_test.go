package scan

import "testing"

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

func TestChainHasAndString(t *testing.T) {
	ch, _ := NewChain(5, []int{4, 0, 2})
	if ch.Nsv() != 3 {
		t.Errorf("Nsv = %d, want 3", ch.Nsv())
	}
	if ch.Has(1) || !ch.Has(4) {
		t.Error("Has wrong")
	}
	if ch.String() != "chain(3 FFs)" {
		t.Errorf("String = %q", ch.String())
	}
}
