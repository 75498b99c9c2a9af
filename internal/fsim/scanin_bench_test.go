package fsim_test

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/seqgen"
)

// scoresSink keeps the benchmarked scores live.
var scoresSink []int

// BenchmarkScanInScores scores Phase 1 Step 2's candidates as the
// pipelines configure it: C's states at the stride that leaves at most
// 48 candidates, a random T_0 of 200 vectors, and 504 faults sampled
// at a uniform stride over the collapsed list, at 1 worker. The scores
// arm is ScanInScores; the loop arm grades each state with its own
// DetectTest, as Phase 1 did before the candidates shared a reference.
// Both report the pass-vectors one scoring simulates, after one
// untimed scoring that compiles the simulator's program.
func BenchmarkScanInScores(b *testing.B) {
	for _, name := range []string{"s1423", "b04"} {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			b.Fatalf("unknown roster circuit %q", name)
		}
		faults := fault.Collapse(c)
		comb, err := atpg.Generate(c, faults, atpg.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		stride := (len(comb.Tests) + 47) / 48
		var states []logic.Vector
		for j := 0; j < len(comb.Tests); j += stride {
			states = append(states, comb.Tests[j].State)
		}
		seq := seqgen.Random(c, 200, 2)
		sample := fault.NewSet(len(faults))
		for f, step := 0, (len(faults)+503)/504; f < len(faults); f += step {
			sample.Add(f)
		}
		for _, arm := range []struct {
			name  string
			score func(s *fsim.Simulator) []int
		}{
			{"scores", func(s *fsim.Simulator) []int { return s.ScanInScores(seq, states, sample) }},
			{"loop", func(s *fsim.Simulator) []int {
				scores := make([]int, len(states))
				for i, st := range states {
					scores[i] = s.DetectTest(st, seq, sample).Count()
				}
				return scores
			}},
		} {
			b.Run(name+"/"+arm.name, func(b *testing.B) {
				s := fsim.New(c, faults)
				arm.score(s)
				s.ResetStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					scoresSink = arm.score(s)
				}
				b.ReportMetric(float64(s.Stats().PassVectors)/float64(b.N), "pass-vectors/op")
			})
		}
	}
}
