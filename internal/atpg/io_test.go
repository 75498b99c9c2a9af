package atpg

import (
	"testing"

	"repro/internal/logic"
)

func mustVec(t *testing.T, s string) logic.Vector {
	t.Helper()
	v, err := logic.ParseVector(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestWriteTestsGolden pins the bytes of the combset text that artifact
// bundles store as comb.txt, including the "-" written for an empty part.
func TestWriteTestsGolden(t *testing.T) {
	tests := []CombTest{
		{State: mustVec(t, "01x"), PI: mustVec(t, "10")},
		{State: mustVec(t, "xxx"), PI: mustVec(t, "x1")},
		{State: nil, PI: mustVec(t, "0")},  // no flip-flops
		{State: mustVec(t, "11"), PI: nil}, // no primary inputs
	}
	const want = "combset v1\n" +
		"t 01x 10\n" +
		"t xxx x1\n" +
		"t - 0\n" +
		"t 11 -\n"
	if got := WriteTestsString(tests); got != want {
		t.Errorf("WriteTestsString =\n%s\nwant\n%s", got, want)
	}
	if got := WriteTestsString(nil); got != "combset v1\n" {
		t.Errorf("empty set = %q, want the header alone", got)
	}
}
