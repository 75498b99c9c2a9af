package workload

import (
	"fmt"
	"testing"
)

// TestOrderInvariance is the pipeline-level guarantee behind the -order
// flag: the ADI traversal order (and the worker count it composes with)
// only repacks simulation passes, so every rendered table
// — and with it every detected count and N_cyc — must be byte-identical
// to the ascending-order run. Checked on the collapsed default and on
// the uncollapsed baseline arm.
func TestOrderInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	base := Config{T0MaxLen: 80, RandomT0Len: 150, SkipDynamic: true}
	for _, name := range []string{"b01", "b06"} {
		for _, uncollapsed := range []bool{false, true} {
			name, uncollapsed := name, uncollapsed
			t.Run(fmt.Sprintf("%s/uncollapsed=%v", name, uncollapsed), func(t *testing.T) {
				t.Parallel()
				cfg := base
				cfg.Uncollapsed = uncollapsed
				cfg.Order = "none"
				ref, err := RunByName(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := AllTables(Rows([]*CircuitRun{ref}))
				if ref.SimStats.PassVectors == 0 {
					t.Error("reference run reports zero simulation work")
				}
				if (ref.Collapsed == nil) != uncollapsed {
					t.Errorf("Collapsed presence = %v, want %v", ref.Collapsed != nil, !uncollapsed)
				}

				for _, arm := range []struct {
					order   string
					workers int
				}{
					{"adi", 0},
					{"adi", 4},
					{"none", 4},
				} {
					cfg := base
					cfg.Uncollapsed = uncollapsed
					cfg.Order = arm.order
					cfg.Workers = arm.workers
					run, err := RunByName(name, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := AllTables(Rows([]*CircuitRun{run})); got != want {
						t.Errorf("order=%s workers=%d: tables differ from order=none baseline\n--- want ---\n%s--- got ---\n%s",
							arm.order, arm.workers, want, got)
					}
					if run.SimStats.PassVectors == 0 {
						t.Errorf("order=%s: zero simulation work recorded", arm.order)
					}
				}
			})
		}
	}
}
