// Package response computes the expected (fault-free) tester responses
// of a scan test set: the primary-output vector observed at every
// functional cycle and the scan-out vector shifted out after the last
// cycle. These are the SO_i values of the paper's test notation
// τ_i = (SI_i, T_i, SO_i) — recomputable from the netlist, so the rest
// of the repository stores tests without them; this package materializes
// them for export to a tester.
package response

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
)

// TestResponse is the fault-free response of one scan test.
type TestResponse struct {
	// POs[u] is the primary-output vector observed while the u-th
	// at-speed vector is applied.
	POs []logic.Vector
	// ScanOut is the flip-flop state shifted out after the final
	// functional cycle, in chain order (all flip-flops under full scan).
	ScanOut logic.Vector
}

// Compute returns the fault-free response of one test under the given
// chain (nil = full scan).
func Compute(c *circuit.Circuit, ch *scan.Chain, t scan.Test) TestResponse {
	return ForSet(c, ch, &scan.Set{Tests: []scan.Test{t}})[0]
}

// ForSet computes the responses of every test in ts under the given
// chain (nil = full scan). The circuit is compiled once, and every test
// runs on one width-1 kernel engine: the scan-in loads every flip-flop
// and each cycle evaluates every gate, so nothing of a previous test
// is read.
func ForSet(c *circuit.Circuit, ch *scan.Chain, ts *scan.Set) []TestResponse {
	ch = scan.OrFull(ch, c.NumFFs())
	eng := sim.NewBatch(sim.Compile(c), 1)
	out := make([]TestResponse, len(ts.Tests))
	for i, t := range ts.Tests {
		eng.SetStateVector(ch.State(t.SI))
		resp := TestResponse{POs: make([]logic.Vector, 0, t.Len())}
		for _, v := range t.Seq {
			eng.SetPIVector(v)
			eng.EvalComb()
			po := make(logic.Vector, c.NumPOs())
			for k := range c.POs {
				po[k] = eng.PO(k)[0].Get(0)
			}
			resp.POs = append(resp.POs, po)
			eng.ClockFF()
		}
		resp.ScanOut = make(logic.Vector, ch.Nsv())
		for k, ff := range ch.FFs {
			resp.ScanOut[k] = eng.State(ff)[0].Get(0)
		}
		out[i] = resp
	}
	return out
}

// Write emits test set and responses in a tester-oriented text format:
//
//	response v1
//	test
//	si 0101
//	in 10 -> po 011
//	in 11 -> po 001
//	so 0110
//	end
func Write(w io.Writer, ts *scan.Set, resps []TestResponse) error {
	if len(ts.Tests) != len(resps) {
		return fmt.Errorf("response: %d tests but %d responses", len(ts.Tests), len(resps))
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "response v1")
	for i, t := range ts.Tests {
		fmt.Fprintln(bw, "test")
		fmt.Fprintf(bw, "si %s\n", t.SI)
		for u, v := range t.Seq {
			fmt.Fprintf(bw, "in %s -> po %s\n", v, resps[i].POs[u])
		}
		fmt.Fprintf(bw, "so %s\n", resps[i].ScanOut)
		fmt.Fprintln(bw, "end")
	}
	return bw.Flush()
}
