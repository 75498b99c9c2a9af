package workload

import (
	"fmt"
	"testing"
)

// TestLedgerInvariance is the pipeline-level arm of the detection
// ledger's byte-identity contract: the ledger engines only change how
// the compaction loops schedule simulation, so every rendered table,
// the universe-coverage extension included, must equal the pre-ledger
// serial run's, under full and partial scan, at any worker count. The
// pre-ledger engines are gone; their b01 tables were written by that
// run into testdata/golden_full_scan.txt and golden_partial_scan.txt
// before the removal, and the serial run is checked against them. One
// partial-scan cell has moved since: the [2,3] column (and its total)
// reads 17, not 18, because the dynamic baseline now caps extensions at
// the chain's N_SV rather than the flip-flop count. The per-engine arms
// live in vecomit, scomp, dyncomp and core.
func TestLedgerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	for _, name := range []string{"b01"} {
		for _, arm := range []struct {
			scanFFs int
			golden  string
		}{
			{0, "golden_full_scan.txt"},
			{3, "golden_partial_scan.txt"},
		} {
			name, arm := name, arm
			t.Run(fmt.Sprintf("%s/scanffs=%d", name, arm.scanFFs), func(t *testing.T) {
				t.Parallel()
				render := func(workers int) string {
					cfg := fastCfg()
					cfg.ScanFFs = arm.scanFFs
					cfg.Workers = workers
					run, err := RunByName(name, cfg)
					if err != nil {
						t.Fatal(err)
					}
					rows := Rows([]*CircuitRun{run})
					return AllTables(rows) + TableUniverse(rows).Render()
				}
				want := render(1)
				checkGolden(t, arm.golden, want)
				if got := render(4); got != want {
					t.Errorf("workers=4: tables differ from the serial run\n--- want ---\n%s--- got ---\n%s", want, got)
				}
			})
		}
	}
}
