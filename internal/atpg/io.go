package atpg

import (
	"fmt"
	"strings"

	"repro/internal/logic"
)

// The combinational test set text format:
//
//	combset v1
//	t <state> <pi>
//
// One line per test; <state> is the present-state (scan-in) part and
// <pi> the primary-input part, both as value strings ("01x..."). An
// empty part (a circuit with no flip-flops or no primary inputs) is
// written as "-".

// WriteTestsString renders a combinational test set in the text format.
func WriteTestsString(tests []CombTest) string {
	var sb strings.Builder
	sb.WriteString("combset v1\n")
	for _, t := range tests {
		fmt.Fprintf(&sb, "t %s %s\n", vecOrDash(t.State), vecOrDash(t.PI))
	}
	return sb.String()
}

func vecOrDash(v logic.Vector) string {
	if len(v) == 0 {
		return "-"
	}
	return v.String()
}
