package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
)

// This file asserts the paper's shape, as EXPERIMENTS.md states it, on
// the checked-in reproduction tables_output.txt. TestFullRoster keeps
// that file equal to the live output; these checks catch an output that
// a change accepts as the new reference but that breaks a claim.

// The EXPERIMENTS.md sentences the checks assert, quoted by section.
const (
	claimTable1 = "EXPERIMENTS.md §Table 1: \"the same ordering holds on every circuit — `T0 ≤ scan ≤ final`\""
	claimTable2 = "EXPERIMENTS.md §Table 2: \"`scan ≤ T0` on every row, strictly on every row except s820\""
	claimTable3 = "EXPERIMENTS.md §Table 3: \"`[4] init` 39343 > `[2,3]` (worse than [4] comp where reported) > " +
		"`[4] comp` 29219 ≥ `proposed init` 29471 > `proposed comp` 28493\", measured \"proposed init … ≈/below [4] comp\""
	claimTable3Rand = "EXPERIMENTS.md §Table 3: \"random-T0 variants slightly worse than the ATPG-T0 variants " +
		"but still better than `[4] init`\""
)

// table is one rendered table: its column names and its rows, keyed by
// the first cell (the circuit, or "total").
type table struct {
	cols []string
	rows map[string][]string
}

// headerSep splits a header row: cells are joined by at least two
// spaces, and a column name holds at most one.
var headerSep = regexp.MustCompile(`\s{2,}`)

// parseTables reads rendered tables, keyed by the title up to its
// colon ("Table 3"). Tables are blank-line separated blocks: a title, a
// header, a rule and the rows.
func parseTables(text string) map[string]*table {
	tables := map[string]*table{}
	for _, block := range strings.Split(text, "\n\n") {
		lines := strings.Split(strings.Trim(block, "\n"), "\n")
		if len(lines) < 3 {
			continue
		}
		title, _, _ := strings.Cut(lines[0], ":")
		tb := &table{cols: headerSep.Split(strings.TrimSpace(lines[1]), -1), rows: map[string][]string{}}
		for _, l := range lines[3:] {
			if f := strings.Fields(l); len(f) > 0 {
				tb.rows[f[0]] = f
			}
		}
		tables[title] = tb
	}
	return tables
}

// shape collects the values a claim needs and the violations found.
type shape struct {
	tables map[string]*table
	errs   []string
}

// fail records a violation of claim.
func (s *shape) fail(claim, format string, args ...any) {
	s.errs = append(s.errs, fmt.Sprintf(format, args...)+"; violates "+claim)
}

// value returns the integer in column col of row in the named table. A
// missing table, row or column, or a cell that is not an integer, is a
// violation of claim, reported once.
func (s *shape) value(claim, name, row, col string) (int, bool) {
	tb := s.tables[name]
	if tb == nil {
		s.fail(claim, "%s is missing", name)
		return 0, false
	}
	ci := -1
	for i, c := range tb.cols {
		if c == col {
			ci = i
		}
	}
	cells, ok := tb.rows[row]
	switch {
	case ci < 0:
		s.fail(claim, "%s has no column %q", name, col)
	case !ok:
		s.fail(claim, "%s has no row %s", name, row)
	case ci >= len(cells):
		s.fail(claim, "%s row %s has no %q cell", name, row, col)
	default:
		v, err := strconv.Atoi(cells[ci])
		if err != nil {
			s.fail(claim, "%s row %s column %q: %v", name, row, col, err)
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// shapeViolations checks the rendered tables against the shape claims
// of EXPERIMENTS.md and returns one message per violation, each citing
// the claim's sentence. Every roster circuit must have its row.
func shapeViolations(text string) []string {
	s := &shape{tables: parseTables(text)}
	for _, ckt := range gen.RosterNames() {
		t0, ok1 := s.value(claimTable1, "Table 1", ckt, "T0")
		sc, ok2 := s.value(claimTable1, "Table 1", ckt, "scan")
		fin, ok3 := s.value(claimTable1, "Table 1", ckt, "final")
		if ok1 && ok2 && ok3 && !(t0 <= sc && sc <= fin) {
			s.fail(claimTable1, "Table 1 %s: T0 %d, scan %d, final %d", ckt, t0, sc, fin)
		}
		t0, ok1 = s.value(claimTable2, "Table 2", ckt, "T0")
		sc, ok2 = s.value(claimTable2, "Table 2", ckt, "scan")
		if ok1 && ok2 && (sc > t0 || sc == t0 && ckt != "s820") {
			s.fail(claimTable2, "Table 2 %s: scan %d, T0 %d", ckt, sc, t0)
		}
	}
	total := func(claim, col string) (int, bool) { return s.value(claim, "Table 3", "total", col) }
	// Each chain must be strictly decreasing from left to right.
	for _, chain := range []struct {
		claim string
		cols  []string
	}{
		{claimTable3, []string{"[4] init", "[2,3]", "[4] comp", "prop init", "prop comp"}},
		{claimTable3Rand, []string{"rand comp", "prop comp"}},
		{claimTable3Rand, []string{"rand init", "prop init"}},
		{claimTable3Rand, []string{"[4] init", "rand init"}},
	} {
		for i := 1; i < len(chain.cols); i++ {
			hi, ok1 := total(chain.claim, chain.cols[i-1])
			lo, ok2 := total(chain.claim, chain.cols[i])
			if ok1 && ok2 && hi <= lo {
				s.fail(chain.claim, "Table 3 totals: %s %d is not above %s %d", chain.cols[i-1], hi, chain.cols[i], lo)
			}
		}
	}
	return s.errs
}

// TestPaperShape asserts the shape claims on tables_output.txt.
func TestPaperShape(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("..", "..", "tables_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range shapeViolations(string(text)) {
		t.Error(v)
	}
}

// TestPaperShapeRejects feeds the checker broken copies of
// tables_output.txt; each must fail and name the claim it breaks.
func TestPaperShapeRejects(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "tables_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, tc := range []struct {
		name  string
		edit  func(string) string
		claim string
	}{
		{"phase 4 skipped: prop comp equals prop init", func(s string) string {
			return copyColumn(t, s, "Table 3", "prop init", "prop comp")
		}, claimTable3},
		{"missing table", func(s string) string {
			return strings.Replace(s, "Table 2: Test lengths", "Table 2b: Test lengths", 1)
		}, claimTable2},
		{"missing row", func(s string) string {
			return strings.Replace(s, "\ns820 ", "\nx820 ", 1)
		}, claimTable1},
		{"missing column", func(s string) string {
			return strings.Replace(s, "rand comp\n", "rand cmp\n", 1)
		}, claimTable3Rand},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.edit(text)
			if bad == text {
				t.Fatal("the edit changed nothing")
			}
			v := shapeViolations(bad)
			found := false
			for _, msg := range v {
				found = found || strings.Contains(msg, tc.claim)
			}
			if !found {
				t.Errorf("no violation cites %s; got %q", tc.claim, v)
			}
		})
	}
}

// copyColumn returns text with every row of the named table carrying
// column from's cell in column to as well. Rows are rewritten with
// single spaces, which parseTables reads the same.
func copyColumn(t *testing.T, text, name, from, to string) string {
	t.Helper()
	tb := parseTables(text)[name]
	if tb == nil {
		t.Fatalf("%s is missing", name)
	}
	fi, ti := -1, -1
	for i, c := range tb.cols {
		switch c {
		case from:
			fi = i
		case to:
			ti = i
		}
	}
	if fi < 0 || ti < 0 {
		t.Fatalf("%s lacks column %q or %q", name, from, to)
	}
	blocks := strings.Split(text, "\n\n")
	for b, block := range blocks {
		lines := strings.Split(block, "\n")
		if !strings.HasPrefix(lines[0], name+":") {
			continue
		}
		for i := 3; i < len(lines); i++ {
			if f := strings.Fields(lines[i]); len(f) > max(fi, ti) {
				f[ti] = f[fi]
				lines[i] = strings.Join(f, " ")
			}
		}
		blocks[b] = strings.Join(lines, "\n")
	}
	return strings.Join(blocks, "\n\n")
}
