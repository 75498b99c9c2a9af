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
// builds a fresh simulator, so compiling the circuit is included.
// -short keeps only the mid-size roster circuit.
func BenchmarkTransitionGrading(b *testing.B) {
	for _, name := range []string{"s1423", "s35932xl"} {
		if name == "s35932xl" && testing.Short() {
			continue
		}
		b.Run(name, func(b *testing.B) {
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
			b.ResetTimer()
			var det int
			for i := 0; i < b.N; i++ {
				det = New(c, faults).DetectSet(ts).Count()
			}
			b.StopTimer()
			b.ReportMetric(float64(det), "detected")
		})
	}
}
