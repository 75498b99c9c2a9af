// Command fsim fault-simulates a scan test set or a raw input sequence
// against a circuit and reports fault coverage and test application cost.
//
// Usage:
//
//	fsim -roster s298 -tests tests.txt
//	fsim -roster s298 -scan 7 -tests tests.txt
//	fsim -bench mydesign.bench -seq t0.txt
//
// -scan N grades a partial-scan test set, such as one written by
// `scancompact -scan N`: the chain holds the first N flip-flops (0 or
// N >= the flip-flop count is full scan), scan-in vectors are indexed
// by chain position and only the chain is observed at scan-out.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cliutil"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/oracle"
	"repro/internal/scan"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fsim: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: it parses args, grades the test set or
// sequence and prints the report to stdout.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("fsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "", "input .bench netlist")
	roster := fs.String("roster", "", "synthetic roster circuit name")
	testsPath := fs.String("tests", "", "scan test set file (internal/scan text format)")
	seqPath := fs.String("seq", "", "raw PI sequence file (applied without scan from all-X)")
	scanFFs := fs.Int("scan", 0, "partial scan: the chain holds the first N flip-flops (0 = full scan)")
	workers := fs.Int("workers", 0, "worker goroutines per simulation run (0 = NumCPU, 1 = serial)")
	verbose := fs.Bool("v", false, "list undetected faults")
	check := fs.Bool("check", false, "audit the result against the scalar reference simulator (sampled)")
	checkSample := fs.Int("checksample", 0, "faults re-simulated per audit direction (0 = default, -1 = all)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scanCfg := workload.Config{ScanFFs: *scanFFs}
	if err := scanCfg.Validate(); err != nil {
		return fmt.Errorf("-scan: %w", err)
	}

	stopProfiles, err := cliutil.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	c, err := cliutil.LoadCircuit(*benchPath, *roster)
	if err != nil {
		return err
	}
	chain := scanCfg.Chain(c)
	fmt.Fprintln(stdout, c.Stats())
	cc := fault.CollapseWithMap(c)
	faults := cc.Reps
	fmt.Fprintf(stdout, "faults: %d collapsed of %d total (ratio %.2f)\n",
		len(cc.Reps), len(cc.Universe), cc.Ratio())
	s := fsim.NewChain(c, faults, chain).SetWorkers(*workers)

	detected := fault.NewSet(len(faults))
	var audit func() *oracle.Report
	auditOpt := oracle.AuditOptions{SampleFaults: *checkSample}
	switch {
	case *testsPath != "" && *seqPath != "":
		return errors.New("use either -tests or -seq, not both")
	case *testsPath != "":
		f, err := os.Open(*testsPath)
		if err != nil {
			return err
		}
		ts, err := scan.ReadSet(f)
		f.Close()
		if err != nil {
			return err
		}
		for _, t := range ts.Tests {
			detected.UnionWith(s.DetectTest(t.SI, t.Seq, nil))
		}
		fmt.Fprintf(stdout, "test set: %d tests, %d vectors, %d clock cycles\n",
			ts.NumTests(), ts.TotalVectors(), ts.Cycles(s.Nsv()))
		fmt.Fprintf(stdout, "at-speed lengths: %s\n", ts.AtSpeed())
		audit = func() *oracle.Report {
			return oracle.AuditCoverage(c, faults, chain, ts, detected, nil, auditOpt)
		}
	case *seqPath != "":
		f, err := os.Open(*seqPath)
		if err != nil {
			return err
		}
		seq, err := scan.ReadSequence(f)
		f.Close()
		if err != nil {
			return err
		}
		detected = s.Detect(seq, fsim.Options{})
		fmt.Fprintf(stdout, "sequence: %d vectors (applied without scan)\n", len(seq))
		audit = func() *oracle.Report {
			return oracle.AuditSequence(c, faults, seq, detected, auditOpt)
		}
	default:
		return errors.New("need -tests <file> or -seq <file>")
	}
	if *check {
		rep := audit()
		if !rep.Ok() {
			return fmt.Errorf("oracle audit FAILED: %s", rep)
		}
		fmt.Fprintf(stdout, "oracle audit: %d checks passed\n", rep.Checks)
	}

	fmt.Fprintf(stdout, "fault coverage: %d/%d (%.2f%%)\n",
		detected.Count(), len(faults), 100*fsim.Coverage(detected, len(faults)))
	universe := cc.ExpandCount(detected)
	fmt.Fprintf(stdout, "universe coverage: %d/%d (%.2f%%)\n",
		universe, len(cc.Universe), 100*float64(universe)/float64(len(cc.Universe)))
	st := s.Stats()
	fmt.Fprintf(stdout, "simulation work: %d passes, %d pass-vectors, %d fault slots\n",
		st.Passes, st.PassVectors, st.FaultSlots)
	if *verbose {
		for i, fl := range faults {
			if !detected.Has(i) {
				fmt.Fprintf(stdout, "undetected: %s\n", fl.String(c))
			}
		}
	}
	return nil
}
