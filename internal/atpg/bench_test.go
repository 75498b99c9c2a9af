package atpg

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/samples"
	"repro/internal/scan"
	"repro/internal/scoap"
	"repro/internal/sim"
)

// BenchmarkGenerate measures full combinational test-set generation
// (random phase + PODEM + compaction) on three roster circuits, with
// the collapsed fault list and roster seed of the pipeline.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"s298", "s1423", "s5378"} {
		b.Run(name, func(b *testing.B) {
			e, ok := gen.FindEntry(name)
			if !ok {
				b.Fatalf("roster circuit %s missing", name)
			}
			c := gen.MustGenerate(e.Params)
			faults := fault.CollapseWithMap(c).Reps
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Generate(c, faults, Options{Seed: e.Params.Seed})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(res.Tests)), "tests")
			}
		})
	}
}

// BenchmarkPodemSingleFault measures one deterministic PODEM search:
// the engine, the SCOAP measures and the fault-independent search state
// are built once, so an iteration is one target and run.
func BenchmarkPodemSingleFault(b *testing.B) {
	c := samples.S27()
	faults := fault.Collapse(c)
	ch := scan.Full(c.NumFFs())
	search := newSearch(c, sim.NewBatch(sim.Compile(c), 1), 1000, ch, scoap.Compute(c, ch))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search.target(faults[i%len(faults)]).run()
	}
}
