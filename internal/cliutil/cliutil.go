// Package cliutil holds helpers shared by the command-line tools.
package cliutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gen"
)

// StartProfiles resolves the common -cpuprofile/-memprofile flag pair:
// it starts CPU profiling into cpuPath (empty = off) and returns a stop
// function that finishes the CPU profile and writes a heap profile —
// after a forced GC, so live allocations dominate — to memPath (empty =
// off). Call stop exactly once on the way out; note that log.Fatal
// bypasses deferred calls, so error exits lose the profiles (the usual
// trade-off for CLI profiling).
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// LoadCircuit resolves the common -bench/-roster flag pair: benchPath
// parses a .bench netlist from disk, rosterName generates the synthetic
// substitute. Exactly one must be set.
func LoadCircuit(benchPath, rosterName string) (*circuit.Circuit, error) {
	switch {
	case benchPath != "" && rosterName != "":
		return nil, fmt.Errorf("use either -bench or -roster, not both")
	case benchPath != "":
		return bench.ParseFile(benchPath)
	case rosterName != "":
		c, ok := gen.RosterCircuit(rosterName)
		if !ok {
			return nil, fmt.Errorf("unknown roster circuit %q (known: %v)", rosterName, gen.RosterNames())
		}
		return c, nil
	}
	return nil, fmt.Errorf("need -bench <file> or -roster <name>")
}
