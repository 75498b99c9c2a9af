// Command fsim fault-simulates a scan test set or a raw input sequence
// against a circuit and reports fault coverage and test application cost.
//
// Usage:
//
//	fsim -roster s298 -tests tests.txt
//	fsim -bench mydesign.bench -seq t0.txt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/adi"
	"repro/internal/cliutil"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/oracle"
	"repro/internal/scan"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fsim: ")
	benchPath := flag.String("bench", "", "input .bench netlist")
	roster := flag.String("roster", "", "synthetic roster circuit name")
	testsPath := flag.String("tests", "", "scan test set file (internal/scan text format)")
	seqPath := flag.String("seq", "", "raw PI sequence file (applied without scan from all-X)")
	workers := flag.Int("workers", 0, "worker goroutines per simulation run (0 = NumCPU, 1 = serial)")
	verbose := flag.Bool("v", false, "list undetected faults")
	check := flag.Bool("check", false, "audit the result against the scalar reference simulator (sampled)")
	checkSample := flag.Int("checksample", 0, "faults re-simulated per audit direction (0 = default, -1 = all)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiles, err := cliutil.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Print(err)
		}
	}()

	c, err := cliutil.LoadCircuit(*benchPath, *roster)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.Stats())
	cc := fault.CollapseWithMap(c)
	faults := cc.Reps
	fmt.Printf("faults: %d collapsed of %d total (ratio %.2f)\n",
		len(cc.Reps), len(cc.Universe), cc.Ratio())
	s := fsim.New(c, faults).SetWorkers(*workers)
	adi.Install(s, adi.Options{Seed: 1})

	detected := fault.NewSet(len(faults))
	var audit func() *oracle.Report
	auditOpt := oracle.AuditOptions{SampleFaults: *checkSample}
	switch {
	case *testsPath != "" && *seqPath != "":
		log.Fatal("use either -tests or -seq, not both")
	case *testsPath != "":
		f, err := os.Open(*testsPath)
		if err != nil {
			log.Fatal(err)
		}
		ts, err := scan.ReadSet(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		for _, t := range ts.Tests {
			detected.UnionWith(s.DetectTest(t.SI, t.Seq, nil))
		}
		nsv := c.NumFFs()
		fmt.Printf("test set: %d tests, %d vectors, %d clock cycles\n",
			ts.NumTests(), ts.TotalVectors(), ts.Cycles(nsv))
		fmt.Printf("at-speed lengths: %s\n", ts.AtSpeed())
		audit = func() *oracle.Report {
			return oracle.AuditCoverage(c, faults, nil, ts, detected, nil, auditOpt)
		}
	case *seqPath != "":
		f, err := os.Open(*seqPath)
		if err != nil {
			log.Fatal(err)
		}
		seq, err := scan.ReadSequence(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		detected = s.Detect(seq, fsim.Options{})
		fmt.Printf("sequence: %d vectors (applied without scan)\n", len(seq))
		audit = func() *oracle.Report {
			return oracle.AuditSequence(c, faults, seq, detected, auditOpt)
		}
	default:
		log.Fatal("need -tests <file> or -seq <file>")
	}
	if *check {
		rep := audit()
		if !rep.Ok() {
			log.Fatalf("oracle audit FAILED: %s", rep)
		}
		fmt.Printf("oracle audit: %d checks passed\n", rep.Checks)
	}

	fmt.Printf("fault coverage: %d/%d (%.2f%%)\n",
		detected.Count(), len(faults), 100*fsim.Coverage(detected, len(faults)))
	universe := cc.ExpandCount(detected)
	fmt.Printf("universe coverage: %d/%d (%.2f%%)\n",
		universe, len(cc.Universe), 100*float64(universe)/float64(len(cc.Universe)))
	st := s.Stats()
	fmt.Printf("simulation work: %d passes, %d pass-vectors, %d fault slots\n",
		st.Passes, st.PassVectors, st.FaultSlots)
	if *verbose {
		for i, fl := range faults {
			if !detected.Has(i) {
				fmt.Printf("undetected: %s\n", fl.String(c))
			}
		}
	}
}
