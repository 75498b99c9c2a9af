package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/scan"
	"repro/internal/workload"
)

// Artifact file names inside a bundle. Every file uses one of the
// repo's deterministic text formats, so a bundle produced from a fresh
// run is byte-identical to one produced from any other run of the same
// key.
const (
	FileBench       = "circuit.bench"    // the as-submitted netlist (round-trips node order)
	FileSummary     = "summary.json"     // scalar row data (counts, lengths, N_sv)
	FileComb        = "comb.txt"         // combinational test set C ("combset v1")
	FileT0          = "t0.txt"           // directed T_0 after conditioning (PI sequence)
	FilePropInitial = "prop_initial.txt" // proposed arm, end of Phase 3 ("testset v1")
	FilePropFinal   = "prop_final.txt"   // proposed arm, end of Phase 4
	FileRandInitial = "rand_initial.txt" // random-T_0 arm, end of Phase 3
	FileRandFinal   = "rand_final.txt"   // random-T_0 arm, end of Phase 4
	FileBase4Init   = "base4_init.txt"   // [4] baseline, initial set
	FileBase4Comp   = "base4_comp.txt"   // [4] baseline, compacted set
	FileBaseDyn     = "basedyn.txt"      // [2,3] dynamic baseline
)

// Artifacts is one content-addressed bundle: the named files a pipeline
// run leaves behind. Optional files (skipped arms, skipped baselines)
// are simply absent from the map. A bundle that has been stored is
// shared, read-only: the Store and every Job of its key hold the same
// one, so neither the map nor any file's bytes may be modified.
type Artifacts struct {
	Files map[string][]byte
}

// Size returns the total payload size in bytes.
func (a *Artifacts) Size() int64 {
	var n int64
	for _, b := range a.Files {
		n += int64(len(b))
	}
	return n
}

// armSummary mirrors workload.ArmRow's scalar half.
type armSummary struct {
	T0Detected            int `json:"t0_detected"`
	SeqDetected           int `json:"seq_detected"`
	FinalDetected         int `json:"final_detected"`
	UniverseSeqDetected   int `json:"universe_seq_detected"`
	UniverseFinalDetected int `json:"universe_final_detected"`
	T0Len                 int `json:"t0_len"`
	SeqLen                int `json:"seq_len"`
	Added                 int `json:"added"`
}

// summary is the JSON scalar record of one run. Field order is fixed by
// the struct, so json.Marshal is deterministic.
type summary struct {
	Version           int         `json:"version"`
	Name              string      `json:"name"`
	Nsv               int         `json:"nsv"`
	Faults            int         `json:"faults"`
	CollapsedUniverse int         `json:"collapsed_universe"`
	CombTests         int         `json:"comb_tests"`
	CombDetected      int         `json:"comb_detected"`
	CombUntestable    int         `json:"comb_untestable"`
	CombAborted       int         `json:"comb_aborted"`
	T0Len             int         `json:"t0_len"`
	Proposed          *armSummary `json:"proposed,omitempty"`
	Rand              *armSummary `json:"rand,omitempty"`
}

func armToSummary(a *workload.ArmRow) *armSummary {
	if a == nil {
		return nil
	}
	return &armSummary{
		T0Detected:            a.T0Detected,
		SeqDetected:           a.SeqDetected,
		FinalDetected:         a.FinalDetected,
		UniverseSeqDetected:   a.UniverseSeqDetected,
		UniverseFinalDetected: a.UniverseFinalDetected,
		T0Len:                 a.T0Len,
		SeqLen:                a.SeqLen,
		Added:                 a.Added,
	}
}

// EncodeRun serializes a completed pipeline run into an artifact
// bundle. The bundle is self-contained: DecodeRow reconstructs the full
// table-level view (including the delay/power extension tables, which
// re-grade the stored sets against the stored netlist) without
// re-running any pipeline phase.
func EncodeRun(run *workload.CircuitRun) (*Artifacts, error) {
	row := run.Row()
	sum := summary{
		Version:           2,
		Name:              row.Name,
		Nsv:               row.Nsv,
		Faults:            row.Faults,
		CollapsedUniverse: row.CollapsedUniverse,
		CombTests:         row.CombTests,
		CombDetected:      row.CombDetected,
		CombUntestable:    row.CombUntestable,
		CombAborted:       row.CombAborted,
		T0Len:             row.T0Len,
		Proposed:          armToSummary(row.Proposed),
		Rand:              armToSummary(row.Rand),
	}
	sj, err := json.MarshalIndent(&sum, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("jobs: encode summary: %v", err)
	}
	a := &Artifacts{Files: map[string][]byte{
		FileBench:   []byte(bench.WriteString(run.Circuit)),
		FileSummary: append(sj, '\n'),
	}}
	if run.Comb != nil {
		a.Files[FileComb] = []byte(atpg.WriteTestsString(run.Comb.Tests))
	}
	if run.T0 != nil {
		var sb bytes.Buffer
		if err := scan.WriteSequence(&sb, run.T0); err != nil {
			return nil, fmt.Errorf("jobs: encode t0: %v", err)
		}
		a.Files[FileT0] = sb.Bytes()
	}
	putSet := func(name string, s *scan.Set) {
		if s != nil {
			a.Files[name] = []byte(scan.WriteSetString(s))
		}
	}
	putSet(FileBase4Init, row.Base4Init)
	putSet(FileBase4Comp, row.Base4Comp)
	putSet(FileBaseDyn, row.BaseDyn)
	if row.Proposed != nil {
		putSet(FilePropInitial, row.Proposed.Initial)
		putSet(FilePropFinal, row.Proposed.Final)
	}
	if row.Rand != nil {
		putSet(FileRandInitial, row.Rand.Initial)
		putSet(FileRandFinal, row.Rand.Final)
	}
	return a, nil
}

// DecodeRow reconstructs the table-level view of a run from its artifact
// bundle. Tables rendered from the decoded Row are byte-identical to
// tables rendered from the fresh CircuitRun the bundle was encoded from
// (the end-to-end suite proves this per roster circuit).
func DecodeRow(a *Artifacts) (*workload.Row, error) {
	sj, ok := a.Files[FileSummary]
	if !ok {
		return nil, fmt.Errorf("jobs: bundle missing %s", FileSummary)
	}
	var sum summary
	if err := json.Unmarshal(sj, &sum); err != nil {
		return nil, fmt.Errorf("jobs: decode summary: %v", err)
	}
	if sum.Version != 2 {
		return nil, fmt.Errorf("jobs: unsupported summary version %d", sum.Version)
	}
	bsrc, ok := a.Files[FileBench]
	if !ok {
		return nil, fmt.Errorf("jobs: bundle missing %s", FileBench)
	}
	ckt, err := bench.ParseString(sum.Name, string(bsrc))
	if err != nil {
		return nil, fmt.Errorf("jobs: decode netlist: %v", err)
	}
	row := &workload.Row{
		Name:              sum.Name,
		Nsv:               sum.Nsv,
		Circuit:           ckt,
		Faults:            sum.Faults,
		CollapsedUniverse: sum.CollapsedUniverse,
		CombTests:         sum.CombTests,
		CombDetected:      sum.CombDetected,
		CombUntestable:    sum.CombUntestable,
		CombAborted:       sum.CombAborted,
		T0Len:             sum.T0Len,
	}
	getSet := func(name string) (*scan.Set, error) {
		b, ok := a.Files[name]
		if !ok {
			return nil, nil
		}
		s, err := scan.ReadSet(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("jobs: decode %s: %v", name, err)
		}
		return s, nil
	}
	if row.Base4Init, err = getSet(FileBase4Init); err != nil {
		return nil, err
	}
	if row.Base4Comp, err = getSet(FileBase4Comp); err != nil {
		return nil, err
	}
	if row.BaseDyn, err = getSet(FileBaseDyn); err != nil {
		return nil, err
	}
	arm := func(s *armSummary, initName, finalName string) (*workload.ArmRow, error) {
		if s == nil {
			return nil, nil
		}
		init, err := getSet(initName)
		if err != nil {
			return nil, err
		}
		final, err := getSet(finalName)
		if err != nil {
			return nil, err
		}
		return &workload.ArmRow{
			T0Detected:            s.T0Detected,
			SeqDetected:           s.SeqDetected,
			FinalDetected:         s.FinalDetected,
			UniverseSeqDetected:   s.UniverseSeqDetected,
			UniverseFinalDetected: s.UniverseFinalDetected,
			T0Len:                 s.T0Len,
			SeqLen:                s.SeqLen,
			Added:                 s.Added,
			Initial:               init,
			Final:                 final,
		}, nil
	}
	if row.Proposed, err = arm(sum.Proposed, FilePropInitial, FilePropFinal); err != nil {
		return nil, err
	}
	if row.Rand, err = arm(sum.Rand, FileRandInitial, FileRandFinal); err != nil {
		return nil, err
	}
	return row, nil
}
