package workload

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden tables files")

// TestGoldenTables pins rendered table output bit-for-bit: the entire
// pipeline is seeded, so any diff means a behavioural change somewhere
// in the stack (generator, ATPG, sequence search, compaction, cost
// model, or formatting). Run with -update to accept an intentional
// change.
//
// The roster arm covers the small full-scan roster. The partial_scan
// arm runs b01 with three scanned flip-flops, so the chain code paths
// of every compaction engine (and the universe-coverage extension) are
// pinned too.
func TestGoldenTables(t *testing.T) {
	t.Run("roster", func(t *testing.T) {
		checkGolden(t, "golden_tables.txt", AllTables(Rows(smallRuns(t))))
	})
	t.Run("partial_scan", func(t *testing.T) {
		cfg := fastCfg()
		cfg.ScanFFs = 3
		run, err := RunByName("b01", cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := Rows([]*CircuitRun{run})
		checkGolden(t, "golden_partial_scan.txt", AllTables(rows)+TableUniverse(rows).Render())
	})
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file %s updated (%d bytes)", name, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("table output drifted from %s; run with -update if intentional\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
