package fault_test

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/samples"
)

func ExampleCollapse() {
	c := samples.S27()
	full := fault.Universe(c)
	collapsed := fault.Collapse(c)
	fmt.Println("universe:   ", len(full))
	fmt.Println("collapsed:  ", len(collapsed))
	// Output:
	// universe:    76
	// collapsed:   38
}
