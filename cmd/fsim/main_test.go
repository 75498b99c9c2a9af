package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/scan"
	"repro/internal/workload"
)

// TestGradesPipelineSet grades s298's final test set, as scancompact
// writes it, and must print the pipeline's own coverage and clock-cycle
// count: under partial scan with -scan 7, and under full scan without
// -scan.
func TestGradesPipelineSet(t *testing.T) {
	entry, ok := gen.FindEntry("s298")
	if !ok {
		t.Fatal("unknown roster circuit s298")
	}
	for _, scanFFs := range []int{7, 0} {
		t.Run(fmt.Sprintf("scan%d", scanFFs), func(t *testing.T) {
			cfg := workload.Config{ScanFFs: scanFFs, SkipBaselines: true, SkipDynamic: true, SkipRandom: true}
			res, err := workload.Run(entry, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := scan.WriteSet(&buf, res.Proposed.Final); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "tests.txt")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			args := []string{"-roster", "s298", "-workers", "1", "-tests", path}
			if scanFFs > 0 {
				args = append(args, "-scan", fmt.Sprint(scanFFs))
			}
			var out bytes.Buffer
			if err := run(args, &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				fmt.Sprintf("fault coverage: %d/%d ", res.Proposed.FinalDetected.Count(), len(res.Faults)),
				fmt.Sprintf(", %d clock cycles\n", res.Proposed.Final.Cycles(res.Nsv())),
			} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("report lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestRejectsNegativeScan checks that -scan takes no negative count.
func TestRejectsNegativeScan(t *testing.T) {
	err := run([]string{"-roster", "s298", "-scan", "-1", "-tests", "unused.txt"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "negative ScanFFs") {
		t.Fatalf("run with -scan -1 returned %v, want the negative-count error", err)
	}
}
