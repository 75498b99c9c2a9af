package fsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
)

// BenchmarkKernelSequentialPass grades one scan test of 48 random
// vectors over the whole collapsed fault list at 1 worker, once with
// every frame swept and once with event frames throughout (ungated: no
// pass-count gate, no fall back). The ratio of the two arms per circuit
// is the crossover table of DESIGN.md §8: event frames win where a
// faulty machine diverges from the good one in a small part of the
// program. Every circuit's faults are packed in ascending order, as the
// pipelines pack them. Under -short only s1423 runs.
func BenchmarkKernelSequentialPass(b *testing.B) {
	for _, name := range []string{"s298", "s1423", "b04", "s5378", "s5378xl", "s35932", "s35932xl"} {
		if testing.Short() && name != "s1423" {
			continue
		}
		c, ok := gen.RosterCircuit(name)
		if !ok {
			b.Fatalf("unknown roster circuit %q", name)
		}
		faults := fault.Collapse(c)
		s := fsim.New(c, faults)
		r := rand.New(rand.NewSource(1))
		seq := make(logic.Sequence, 48)
		for u := range seq {
			seq[u] = make(logic.Vector, c.NumPIs())
			for i := range seq[u] {
				seq[u][i] = logic.Value(r.Intn(2))
			}
		}
		si := make(logic.Vector, s.Nsv())
		for i := range si {
			si[i] = logic.Value(r.Intn(2))
		}
		for _, arm := range []struct {
			name  string
			force func(*fsim.Simulator)
		}{
			{"sweep", fsim.ForceSweep},
			{"event", func(s *fsim.Simulator) { fsim.ForceEvents(s, -1) }},
		} {
			b.Run(name+"/"+arm.name, func(b *testing.B) {
				arm.force(s)
				var det int
				for i := 0; i < b.N; i++ {
					det = s.DetectTest(si, seq, nil).Count()
				}
				b.ReportMetric(float64(det), "detected")
			})
		}
	}
}
