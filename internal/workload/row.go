package workload

import (
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scan"
)

// ArmRow condenses one proposed-procedure arm (directed or random T_0)
// into the scalar counts the paper's tables print, plus the test sets
// the cost and at-speed columns are computed from.
type ArmRow struct {
	T0Detected    int
	SeqDetected   int
	FinalDetected int
	T0Len         int
	SeqLen        int
	Added         int

	// UniverseSeqDetected and UniverseFinalDetected restate SeqDetected
	// and FinalDetected over the full uncollapsed fault universe:
	// detecting a collapsed representative detects its whole structural
	// equivalence class (fault.Collapsed.Members), so the expansion is
	// exact, not an estimate.
	UniverseSeqDetected   int
	UniverseFinalDetected int

	Initial *scan.Set
	Final   *scan.Set
}

// Row is the table-level view of one pipeline run: everything Tables
// 1-5 and the extension tables consume, without the simulator-side
// artifacts (fault sets, traces) that only a live run can carry. A Row
// is produced either from a fresh CircuitRun (Row method) or decoded
// from a cached artifact bundle (package jobs), so the same rendering
// code serves both paths byte-for-byte.
type Row struct {
	Name string
	Nsv  int

	// Circuit is the netlist the run targeted; the delay and power
	// extension tables re-grade the final sets against it.
	Circuit *circuit.Circuit

	// Faults is the simulated fault count (collapsed representatives);
	// CollapsedUniverse is the uncollapsed universe size they stand for.
	Faults            int
	CollapsedUniverse int

	// Combinational test set C statistics.
	CombTests      int
	CombDetected   int
	CombUntestable int
	CombAborted    int

	// T0Len is the directed T_0 length after [11]-style conditioning
	// (0 when the directed arm was skipped).
	T0Len int

	// Baseline sets (nil when skipped).
	Base4Init *scan.Set
	Base4Comp *scan.Set
	BaseDyn   *scan.Set

	// Proposed-procedure arms (nil when skipped).
	Proposed *ArmRow
	Rand     *ArmRow
}

// chain rebuilds the row's scan chain, which the pipeline always makes
// of the first Nsv flip-flops: fresh and decoded rows alike carry all it
// takes.
func (r *Row) chain() *scan.Chain { return Config{ScanFFs: r.Nsv}.Chain(r.Circuit) }

// armRow converts one core result into its table row; cc expands the
// collapsed detection counts to the full universe.
func armRow(r *core.Result, cc *fault.Collapsed) *ArmRow {
	if r == nil {
		return nil
	}
	return &ArmRow{
		T0Detected:    r.T0Detected.Count(),
		SeqDetected:   r.SeqDetected.Count(),
		FinalDetected: r.FinalDetected.Count(),
		T0Len:         r.T0Len,
		SeqLen:        r.TauSeq.Len(),
		Added:         r.Added,
		Initial:       r.Initial,
		Final:         r.Final,

		UniverseSeqDetected:   cc.ExpandCount(r.SeqDetected),
		UniverseFinalDetected: cc.ExpandCount(r.FinalDetected),
	}
}

// Row condenses the run into its table-level view.
func (r *CircuitRun) Row() *Row {
	row := &Row{
		Name:              r.Entry.Params.Name,
		Nsv:               r.Nsv(),
		Circuit:           r.Circuit,
		Faults:            len(r.Faults),
		CollapsedUniverse: len(r.Collapsed.Universe),
		T0Len:             len(r.T0),
		Base4Init:         r.Base4Init,
		Base4Comp:         r.Base4Comp,
		BaseDyn:           r.BaseDyn,
		Proposed:          armRow(r.Proposed, r.Collapsed),
		Rand:              armRow(r.ProposedRand, r.Collapsed),
	}
	if r.Comb != nil {
		row.CombTests = len(r.Comb.Tests)
		row.CombDetected = r.Comb.Detected.Count()
		row.CombUntestable = r.Comb.Untestable.Count()
		row.CombAborted = r.Comb.Aborted.Count()
	}
	return row
}

// Rows converts a batch of runs, skipping nil entries (RunAll leaves a
// nil hole for each failed roster entry).
func Rows(runs []*CircuitRun) []*Row {
	rows := make([]*Row, 0, len(runs))
	for _, r := range runs {
		if r == nil {
			continue
		}
		rows = append(rows, r.Row())
	}
	return rows
}
