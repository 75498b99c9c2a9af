package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden")

// goldenCfg pins every seed-bearing knob so the output is reproducible.
func goldenCfg() workload.Config {
	return workload.Config{T0MaxLen: 80, RandomT0Len: 150}
}

var goldenNames = []string{"b01", "b02", "b06"}

// render produces everything the command can print: the paper's five
// tables plus all three extension tables.
func render(runs []*workload.CircuitRun) string {
	return workload.AllTables(workload.Rows(runs)) +
		workload.TableDelay(workload.Rows(runs)).Render() +
		workload.TablePower(workload.Rows(runs)).Render() +
		workload.TableUniverse(workload.Rows(runs)).Render()
}

// TestGoldenTables regenerates all tables at fixed seeds and diffs them
// against the checked-in golden file, catching silent output drift the
// qualitative pipeline tests cannot see. Refresh with -update.
func TestGoldenTables(t *testing.T) {
	runs, err := workload.RunAll(goldenNames, goldenCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	got := render(runs)
	path := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("table output drifted from golden file; run with -update if intentional\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGoldenTablesWithCheck re-runs the golden workload with the oracle
// audit enabled: the audit must pass and the table output must be
// byte-identical to the unchecked run — checking is observation, not
// behaviour.
func TestGoldenTablesWithCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("audited pipeline run is slow")
	}
	cfg := goldenCfg()
	cfg.Check = true
	runs, err := workload.RunAll(goldenNames, cfg, 2)
	if err != nil {
		t.Fatalf("audited run failed: %v", err)
	}
	got := render(runs)
	want, err := os.ReadFile(filepath.Join("testdata", "tables.golden"))
	if err != nil {
		t.Skipf("golden file missing: %v", err)
	}
	if got != string(want) {
		t.Error("-check changed the table output")
	}
}

// TestFullRoster runs the command as `tables -delay` over the whole
// roster, every arm at its default setting, and diffs the output with
// the checked-in reproduction, tables_output.txt. It takes minutes, so
// it runs only with FULL_ROSTER=1.
func TestFullRoster(t *testing.T) {
	if os.Getenv("FULL_ROSTER") != "1" {
		t.Skip("set FULL_ROSTER=1 to check the full reproduction")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "tables_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-delay"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if msg := firstDiff(stdout.String(), string(want)); msg != "" {
		t.Errorf("tables -delay differs from tables_output.txt: %s", msg)
	}
}

// firstDiff describes the first line where got and want differ, with
// the table heading above it and the row's circuit; "" means equal.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return ""
	}
	for i := 0; i < max(len(g), len(w)); i++ {
		gl, wl := line(g, i), line(w, i)
		if gl == wl {
			continue
		}
		// A table's heading opens its blank-line-separated block, and a
		// row's first field names its circuit.
		h := min(i, len(w))
		for h > 0 && w[h-1] != "" {
			h--
		}
		circuit := "?"
		if f := strings.Fields(wl); len(f) > 0 {
			circuit = f[0]
		} else if f := strings.Fields(gl); len(f) > 0 {
			circuit = f[0]
		}
		return fmt.Sprintf("line %d, in %q, circuit %s:\n got: %q\nwant: %q",
			i+1, line(w, h), circuit, gl, wl)
	}
	return ""
}
