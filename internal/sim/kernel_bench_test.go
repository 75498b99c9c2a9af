package sim

import (
	"fmt"
	"testing"

	"repro/internal/gen"
)

// BenchmarkKernelEval isolates the raw combinational-evaluation cost:
// one BatchEngine.EvalComb at each of the kernel's two widths, with no
// injections, scan traffic or detection checks. Mslot-gate-evals/s
// compares the widths on equal work: a width-W pass evaluates every
// gate in 64*W slots.
func BenchmarkKernelEval(b *testing.B) {
	c, ok := gen.RosterCircuit("s1423")
	if !ok {
		b.Fatal("unknown roster circuit s1423")
	}
	p := Compile(c)
	for _, w := range []int{1, WideWidth} {
		b.Run(fmt.Sprintf("kernel-w%d", w), func(b *testing.B) {
			e := NewBatch(p, w)
			for i := 0; i < b.N; i++ {
				e.EvalComb()
			}
			b.ReportMetric(float64(b.N)*float64(c.NumNodes()*w*64)/b.Elapsed().Seconds()/1e6, "Mslot-gate-evals/s")
		})
	}
}
