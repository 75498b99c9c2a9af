package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/samples"
)

func TestLoadCircuitFromRoster(t *testing.T) {
	c, err := LoadCircuit("", "s298")
	if err != nil {
		t.Fatalf("roster load: %v", err)
	}
	if c.Name != "s298" || c.NumFFs() != 14 {
		t.Errorf("wrong circuit: %s", c.Stats())
	}
}

func TestLoadCircuitFromBenchFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s27.bench")
	if err := bench.WriteFile(path, samples.S27()); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCircuit(path, "")
	if err != nil {
		t.Fatalf("bench load: %v", err)
	}
	if c.NumFFs() != 3 {
		t.Error("wrong circuit loaded")
	}
}

func TestLoadCircuitErrors(t *testing.T) {
	if _, err := LoadCircuit("", ""); err == nil {
		t.Error("no source should fail")
	}
	if _, err := LoadCircuit("x.bench", "s298"); err == nil {
		t.Error("both sources should fail")
	}
	if _, err := LoadCircuit("", "nope"); err == nil {
		t.Error("unknown roster name should fail")
	} else if !strings.Contains(err.Error(), "s298") {
		t.Error("error should list known circuits")
	}
	if _, err := LoadCircuit(filepath.Join(os.TempDir(), "definitely-missing.bench"), ""); err == nil {
		t.Error("missing file should fail")
	}
}
