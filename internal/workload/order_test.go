package workload

import (
	"testing"
)

// TestOrderInvariance is the pipeline-level guarantee that the worker
// count only schedules simulation passes, so every rendered table — and
// with it every detected count and N_cyc — must be byte-identical between
// a serial run and a 4-worker run. That packing faults into passes in
// another order leaves every detection unchanged is checked over
// permuted fault lists by fsim's TestOrderInvariantResults and
// TestRecordInvariance and by oracle's TestDifferentialOrdered.
func TestOrderInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	base := Config{T0MaxLen: 80, RandomT0Len: 150, SkipDynamic: true}
	for _, name := range []string{"b01", "b06"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref, err := RunByName(name, base)
			if err != nil {
				t.Fatal(err)
			}
			want := AllTables(Rows([]*CircuitRun{ref}))
			if ref.SimStats.PassVectors == 0 {
				t.Error("reference run reports zero simulation work")
			}

			cfg := base
			cfg.Workers = 4
			run, err := RunByName(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := AllTables(Rows([]*CircuitRun{run})); got != want {
				t.Errorf("workers=4: tables differ from the serial run\n--- want ---\n%s--- got ---\n%s", want, got)
			}
			if run.SimStats.PassVectors == 0 {
				t.Error("workers=4: zero simulation work recorded")
			}
		})
	}
}
