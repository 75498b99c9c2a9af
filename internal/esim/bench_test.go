package esim

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim"
)

func benchCircuitAndSeq() (seq logic.Sequence, p gen.Params) {
	p = gen.Params{Name: "b", Seed: 3, PIs: 8, POs: 6, FFs: 24, Gates: 400}
	c := gen.MustGenerate(p)
	r := rand.New(rand.NewSource(1))
	seq = make(logic.Sequence, 128)
	v := logic.NewVector(c.NumPIs(), logic.Zero)
	for i := range seq {
		// Low-activity input: flip one bit per cycle.
		v = v.Clone()
		v[r.Intn(len(v))] = v[r.Intn(len(v))].Not()
		seq[i] = v
	}
	return seq, p
}

// BenchmarkEventDrivenSequence runs a low-activity sequence through the
// event-driven engine (only changed cones re-evaluate).
func BenchmarkEventDrivenSequence(b *testing.B) {
	seq, p := benchCircuitAndSeq()
	c := gen.MustGenerate(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(c)
		e.SetStateVector(logic.NewVector(c.NumFFs(), logic.Zero))
		for _, v := range seq {
			e.Step(v)
		}
		b.ReportMetric(float64(e.GatesEvaluated())/float64(len(seq)), "gate-evals/cycle")
	}
}

// BenchmarkLevelizedSequence runs the same workload through the compiled
// kernel at width 1 (every gate, every cycle — 64 slots per instruction
// when batched; here a single scalar-equivalent run for an
// apples-to-apples latency comparison).
func BenchmarkLevelizedSequence(b *testing.B) {
	seq, p := benchCircuitAndSeq()
	c := gen.MustGenerate(p)
	prog := sim.Compile(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewBatch(prog, 1)
		e.SetStateVector(logic.NewVector(c.NumFFs(), logic.Zero))
		for _, v := range seq {
			e.SetPIVector(v)
			e.Step()
		}
	}
}
