package tfault

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/scan"
)

// BenchmarkTransitionGrading grades a seeded scan test set the way
// workload.TableDelay does (DetectSet, dropping across tests): length-1
// tests alternating with 48-vector at-speed sequences. Each iteration
// builds a fresh simulator, so compiling the circuit is included. Every
// circuit runs each kind of capture frame: the event limit's choice
// (limit), the sweep (sweep) and event frames throughout (events);
// DESIGN.md §8 records the crossover. -short keeps only the mid-size
// roster circuit.
func BenchmarkTransitionGrading(b *testing.B) {
	for _, name := range []string{"s1423", "b04", "s5378", "s35932", "s35932xl"} {
		if name != "s1423" && testing.Short() {
			continue
		}
		c, ok := gen.RosterCircuit(name)
		if !ok {
			b.Fatalf("unknown roster circuit %s", name)
		}
		faults := Universe(c)
		r := rand.New(rand.NewSource(1))
		ts := scan.NewSet()
		for i := 0; i < 4; i++ {
			n := 1
			if i%2 == 1 {
				n = 48
			}
			ts.Tests = append(ts.Tests, scan.Test{SI: randVector(r, c.NumFFs(), 0), Seq: randSequence(r, c.NumPIs(), n, 0)})
		}
		for _, arm := range captureArms {
			b.Run(name+"/"+arm.name, func(b *testing.B) {
				var det int
				for i := 0; i < b.N; i++ {
					s := New(c, faults)
					arm.force(s)
					det = s.DetectSet(ts).Count()
				}
				b.ReportMetric(float64(det), "detected")
			})
		}
	}
}
