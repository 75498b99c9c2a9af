package workload

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/scan"
	"repro/internal/tabfmt"
	"repro/internal/tfault"
)

// The table functions consume []*Row — the table-level view produced by
// Rows from fresh pipeline runs, or decoded from cached artifact
// bundles by package jobs. Both sources render byte-identically.

// Table1 reproduces "Table 1: Detected faults": per circuit, flip-flop
// count, |C|, total faults, and the faults detected by T_0, by τ_seq
// ("scan") and by the final test set.
func Table1(rows []*Row) *tabfmt.Table {
	t := tabfmt.New("Table 1: Detected faults",
		"circuit", "ff", "comb tsts", "flts", "T0", "scan", "final")
	for _, r := range rows {
		t.AddRow(r.Name, r.Nsv, r.CombTests, r.Faults,
			r.Proposed.T0Detected,
			r.Proposed.SeqDetected,
			r.Proposed.FinalDetected)
	}
	return t
}

// Table2 reproduces "Table 2: Test lengths": L(T_0), L(T_seq) and the
// number of length-1 tests added in Phase 3.
func Table2(rows []*Row) *tabfmt.Table {
	t := tabfmt.New("Table 2: Test lengths",
		"circuit", "T0", "scan", "added c.tst")
	for _, r := range rows {
		t.AddRow(r.Name,
			r.Proposed.T0Len, r.Proposed.SeqLen, r.Proposed.Added)
	}
	return t
}

// Table3 reproduces "Table 3: Numbers of clock cycles": the dynamic
// baseline [2,3], the initial and compacted sets of [4], and the
// proposed procedure's initial (end of Phase 3) and compacted (end of
// Phase 4) sets for both T_0 sources, plus totals.
func Table3(rows []*Row) *tabfmt.Table {
	t := tabfmt.New("Table 3: Numbers of clock cycles",
		"circuit", "[2,3]", "[4] init", "[4] comp",
		"prop init", "prop comp", "rand init", "rand comp")
	var tot [7]int
	for _, r := range rows {
		nsv := r.Nsv
		cells := make([]interface{}, 0, 8)
		cells = append(cells, r.Name)
		vals := []int{
			cyclesOrNeg(r.BaseDyn, nsv),
			cyclesOrNeg(r.Base4Init, nsv),
			cyclesOrNeg(r.Base4Comp, nsv),
			cyclesOrNeg(r.Proposed.Initial, nsv),
			cyclesOrNeg(r.Proposed.Final, nsv),
		}
		if r.Rand != nil {
			vals = append(vals, r.Rand.Initial.Cycles(nsv), r.Rand.Final.Cycles(nsv))
		} else {
			vals = append(vals, -1, -1)
		}
		for i, v := range vals {
			if v < 0 {
				cells = append(cells, "-")
			} else {
				cells = append(cells, v)
				tot[i] += v
			}
		}
		t.AddRow(cells...)
	}
	t.AddRow("total", tot[0], tot[1], tot[2], tot[3], tot[4], tot[5], tot[6])
	return t
}

// Table4 reproduces "Table 4: At-speed test lengths": average and range
// of the PI sequence lengths of the final test sets of [4] and of the
// proposed procedure (both T_0 sources).
func Table4(rows []*Row) *tabfmt.Table {
	t := tabfmt.New("Table 4: At-speed test lengths",
		"circuit", "[4] ave", "[4] range",
		"prop ave", "prop range", "rand ave", "rand range")
	for _, r := range rows {
		cells := []interface{}{r.Name}
		cells = append(cells, atSpeedCells(r.Base4Comp)...)
		cells = append(cells, atSpeedCells(r.Proposed.Final)...)
		if r.Rand != nil {
			cells = append(cells, atSpeedCells(r.Rand.Final)...)
		} else {
			cells = append(cells, "-", "-")
		}
		t.AddRow(cells...)
	}
	return t
}

// Table5 reproduces "Table 5: Results for random sequences": detections,
// sequence lengths and added tests for the random-T_0 arm.
func Table5(rows []*Row) *tabfmt.Table {
	t := tabfmt.New("Table 5: Results for random sequences",
		"circuit", "T0", "scan", "final", "T0 len", "scan len", "added c.tst")
	for _, r := range rows {
		if r.Rand == nil {
			t.AddRow(r.Name, "-", "-", "-", "-", "-", "-")
			continue
		}
		p := r.Rand
		t.AddRow(r.Name,
			p.T0Detected, p.SeqDetected, p.FinalDetected,
			p.T0Len, p.SeqLen, p.Added)
	}
	return t
}

// TableDelay is an extension beyond the paper's tables: it quantifies
// the at-speed motivation (Section 1, refs [5][6]) by grading the final
// test sets of [4] and of the proposed procedure against the transition
// (gate-delay) fault model, under the row's scan chain. Length-1 tests
// launch no at-speed transition, so the [4]-style sets should trail
// badly.
func TableDelay(rows []*Row) *tabfmt.Table {
	t := tabfmt.New("Extension table: transition-fault (delay) coverage of final test sets",
		"circuit", "tflts", "[4] init", "[4] comp", "prop det", "rand det")
	for _, r := range rows {
		tf := tfault.Universe(r.Circuit)
		s := tfault.NewChain(r.Circuit, tf, r.chain())
		cells := []interface{}{r.Name, len(tf),
			s.DetectSet(r.Base4Init).Count(), // all length-1 tests: no at-speed pair
			s.DetectSet(r.Base4Comp).Count(),
			s.DetectSet(r.Proposed.Final).Count(),
		}
		if r.Rand != nil {
			cells = append(cells, s.DetectSet(r.Rand.Final).Count())
		} else {
			cells = append(cells, "-")
		}
		t.AddRow(cells...)
	}
	return t
}

// TableUniverse is an extension beyond the paper's tables: it restates
// the detection counts of Table 1 over the full uncollapsed stuck-at
// universe. Simulation targets the collapsed representatives, but
// detecting a representative detects every member of its structural
// equivalence class (fault.Collapsed.Members), so the universe-level
// coverage is exact and directly comparable across tools that do not
// collapse.
func TableUniverse(rows []*Row) *tabfmt.Table {
	t := tabfmt.New("Extension table: uncollapsed-universe fault coverage",
		"circuit", "reps", "universe", "scan", "final", "rand final")
	for _, r := range rows {
		cells := []interface{}{r.Name, r.Faults, r.CollapsedUniverse,
			r.Proposed.UniverseSeqDetected, r.Proposed.UniverseFinalDetected}
		if r.Rand != nil {
			cells = append(cells, r.Rand.UniverseFinalDetected)
		} else {
			cells = append(cells, "-")
		}
		t.AddRow(cells...)
	}
	return t
}

// TablePower is a second extension table: test power of the final test
// sets (shift-in/out weighted transitions + capture switching activity,
// package power, under the row's scan chain). Compaction's other axis:
// the proposed sets trade many scan shifts for longer functional runs,
// cutting shift power.
func TablePower(rows []*Row) *tabfmt.Table {
	t := tabfmt.New("Extension table: test power of final test sets (toggles)",
		"circuit", "[4] shift", "[4] capt", "prop shift", "prop capt")
	for _, r := range rows {
		ch := r.chain()
		b := power.Analyze(r.Circuit, ch, r.Base4Comp)
		p := power.Analyze(r.Circuit, ch, r.Proposed.Final)
		t.AddRow(r.Name,
			b.ShiftInWTM+b.ShiftOutWTM, b.CaptureToggles,
			p.ShiftInWTM+p.ShiftOutWTM, p.CaptureToggles)
	}
	return t
}

// AllTables renders Tables 1-5 for the given rows.
func AllTables(rows []*Row) string {
	out := ""
	for _, t := range []*tabfmt.Table{
		Table1(rows), Table2(rows), Table3(rows), Table4(rows), Table5(rows),
	} {
		out += t.Render() + "\n"
	}
	return out
}

func cyclesOrNeg(s *scan.Set, nsv int) int {
	if s == nil {
		return -1
	}
	return s.Cycles(nsv)
}

func atSpeedCells(s *scan.Set) []interface{} {
	st := s.AtSpeed()
	return []interface{}{st.Average, fmt.Sprintf("%d-%d", st.Min, st.Max)}
}
