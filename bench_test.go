package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/seqgen"
	"repro/internal/workload"
)

// benchRoster is the circuit subset the per-table benchmarks run on.
// The full 19-circuit roster takes minutes per arm (see cmd/tables);
// these four cover small and mid-size circuits from both families.
var benchRoster = []string{"s298", "s344", "b01", "b06"}

// benchCfg keeps benchmark iterations affordable while exercising every
// pipeline stage the corresponding table needs.
func benchCfg() workload.Config {
	return workload.Config{T0MaxLen: 120, RandomT0Len: 300}
}

func runArm(b *testing.B, cfg workload.Config) []*workload.CircuitRun {
	b.Helper()
	runs, err := workload.RunAll(benchRoster, cfg, 4)
	if err != nil {
		b.Fatal(err)
	}
	return runs
}

// BenchmarkTable1DetectedFaults regenerates Table 1 (faults detected by
// T_0, by τ_seq and by the final set) for the benchmark subset.
func BenchmarkTable1DetectedFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.SkipRandom, cfg.SkipDynamic = true, true
		runs := runArm(b, cfg)
		tab := workload.Table1(workload.Rows(runs))
		if len(tab.Rows) != len(benchRoster) {
			b.Fatal("short table")
		}
	}
}

// BenchmarkTable2TestLengths regenerates Table 2 (sequence lengths and
// added top-up tests).
func BenchmarkTable2TestLengths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.SkipRandom, cfg.SkipDynamic = true, true
		runs := runArm(b, cfg)
		tab := workload.Table2(workload.Rows(runs))
		if len(tab.Rows) != len(benchRoster) {
			b.Fatal("short table")
		}
	}
}

// BenchmarkTable3ClockCycles regenerates Table 3 (clock cycles for the
// dynamic baseline, [4] init/comp, and the proposed procedure under both
// T_0 sources). This is the full pipeline: all arms.
func BenchmarkTable3ClockCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := runArm(b, benchCfg())
		tab := workload.Table3(workload.Rows(runs))
		if len(tab.Rows) != len(benchRoster)+1 { // + total row
			b.Fatal("short table")
		}
		// Surface the headline metric: proposed-comp total cycles.
		total := 0
		for _, r := range runs {
			total += r.Proposed.Final.Cycles(r.Nsv())
		}
		b.ReportMetric(float64(total), "prop-comp-cycles")
	}
}

// BenchmarkTable3ClockCyclesWorkers runs the Table 3 pipeline with the
// per-run fault-simulation fan-out serial and at NumCPU workers. The
// rendered table is identical across arms (detection is exact per fault,
// independent of pass partitioning); only wall-clock differs. The outer
// circuit-level parallelism is pinned to 1 so the arms measure the inner
// fan-out alone.
func BenchmarkTable3ClockCyclesWorkers(b *testing.B) {
	var serial string
	for _, n := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg()
				cfg.Workers = n
				runs, err := workload.RunAll(benchRoster, cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				tab := workload.Table3(workload.Rows(runs)).Render()
				if serial == "" {
					serial = tab
				} else if tab != serial {
					b.Fatal("table output differs between worker counts")
				}
			}
		})
	}
}

// BenchmarkTable4AtSpeed regenerates Table 4 (at-speed sequence length
// statistics of the final test sets).
func BenchmarkTable4AtSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.SkipDynamic = true
		runs := runArm(b, cfg)
		tab := workload.Table4(workload.Rows(runs))
		if len(tab.Rows) != len(benchRoster) {
			b.Fatal("short table")
		}
	}
}

// BenchmarkTable5RandomSequences regenerates Table 5 (the random-T_0 arm).
func BenchmarkTable5RandomSequences(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.SkipDynamic = true
		runs := runArm(b, cfg)
		tab := workload.Table5(workload.Rows(runs))
		if len(tab.Rows) != len(benchRoster) {
			b.Fatal("short table")
		}
	}
}

// BenchmarkTableDelayCoverage regenerates the extension table grading
// final test sets against the transition-fault model (the paper's
// at-speed motivation, Section 1 refs [5][6]).
func BenchmarkTableDelayCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.SkipDynamic = true
		runs := runArm(b, cfg)
		tab := workload.TableDelay(workload.Rows(runs))
		if len(tab.Rows) != len(benchRoster) {
			b.Fatal("short table")
		}
	}
}

// BenchmarkTablePower regenerates the test-power extension table.
func BenchmarkTablePower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.SkipRandom, cfg.SkipDynamic = true, true
		runs := runArm(b, cfg)
		tab := workload.TablePower(workload.Rows(runs))
		if len(tab.Rows) != len(benchRoster) {
			b.Fatal("short table")
		}
	}
}

// BenchmarkAblationBaseline times core.Run alone in the paper's
// configuration (i_0 rule, omission, iteration and Phase 4 all on) on
// the 14-FF fixture of EXPERIMENTS.md §Ablations, and reports its final
// N_cyc.
func BenchmarkAblationBaseline(b *testing.B) {
	c := gen.MustGenerate(gen.Params{Name: "abl", Seed: 404, PIs: 5, POs: 4, FFs: 14, Gates: 150})
	faults := fault.Collapse(c)
	comb, err := atpg.Generate(c, faults, atpg.Options{Seed: 404})
	if err != nil {
		b.Fatal(err)
	}
	t0 := seqgen.Generate(c, faults, seqgen.Options{Seed: 404, MaxLen: 150})
	s := fsim.New(c, faults)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(s, comb.Tests, t0.Seq, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Final.Cycles(c.NumFFs())), "cycles")
	}
}
