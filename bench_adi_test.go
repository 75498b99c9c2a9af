package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchAdiArm is one measured fault-list/order configuration.
type benchAdiArm struct {
	Order       string  `json:"order"`     // "none" or "adi"
	Collapsed   bool    `json:"collapsed"` // structural collapsing on
	Faults      int     `json:"faults"`    // simulated fault-list size (summed over circuits)
	Seconds     float64 `json:"seconds"`
	Passes      int64   `json:"passes"`
	PassVectors int64   `json:"pass_vectors"`
	FaultSlots  int64   `json:"fault_slots"`
}

// benchAdiTable3 is the Table 3 pipeline comparison: the uncollapsed
// ascending-order baseline against the collapsed list, unordered and
// ADI-ordered. The two collapsed arms must render bit-identical tables.
type benchAdiTable3 struct {
	Roster          []string      `json:"roster"`
	CollapseRatio   float64       `json:"collapse_ratio"` // reps / universe, summed over roster
	Arms            []benchAdiArm `json:"arms"`
	WorkReduction   float64       `json:"work_reduction"` // fast pass-vectors / baseline
	TimeReduction   float64       `json:"time_reduction"` // fast seconds / baseline
	IdenticalTables bool          `json:"identical_tables"`
}

// benchAdiXL is the ISCAS-scale arm: random scan-test grading with fault
// dropping on one gen.XLRoster circuit, uncollapsed baseline against the
// ADI-ordered collapsed list, with the collapsed detection expanded back
// to the universe and compared fault for fault.
type benchAdiXL struct {
	Circuit            string        `json:"circuit"`
	Tests              int           `json:"tests"`
	VectorsPerTest     int           `json:"vectors_per_test"`
	CollapseRatio      float64       `json:"collapse_ratio"`
	Arms               []benchAdiArm `json:"arms"`
	WorkReduction      float64       `json:"work_reduction"`
	TimeReduction      float64       `json:"time_reduction"`
	IdenticalDetection bool          `json:"identical_detection"` // expanded == universe grading
	FirstKTests        int           `json:"first_k_tests"`
	FirstKDropFraction float64       `json:"first_k_drop_fraction"` // detected within first k / detected total
}

// benchAdiReport is the schema of BENCH_adi.json, the frozen record of
// collapsing and ADI ordering measured against the uncollapsed,
// ascending-order pipeline. That pipeline configuration is gone, so the
// file is no longer regenerated; the schema test keeps it readable and
// its claims consistent.
type benchAdiReport struct {
	Date      string         `json:"date"`
	GoVersion string         `json:"go_version"`
	CPUs      int            `json:"cpus"`
	Workload  string         `json:"workload"`
	Table3    benchAdiTable3 `json:"table3"`
	XL        benchAdiXL     `json:"xl"`
}

// TestBenchAdiJSONSchema validates the checked-in BENCH_adi.json:
// parseable with no unknown fields, a (none, uncollapsed) baseline and an
// (adi, collapsed) arm in both sections, identical externally visible
// results, and recorded work and wall-clock reductions below 1.
func TestBenchAdiJSONSchema(t *testing.T) {
	raw, err := os.ReadFile("BENCH_adi.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var rep benchAdiReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Date == "" || rep.GoVersion == "" || rep.CPUs < 1 {
		t.Errorf("missing context fields: %+v", rep)
	}
	checkArms := func(section string, arms []benchAdiArm) (base, fast *benchAdiArm) {
		for i := range arms {
			a := &arms[i]
			if a.Faults <= 0 || a.Seconds <= 0 || a.Passes <= 0 || a.PassVectors <= 0 || a.FaultSlots <= 0 {
				t.Errorf("%s: incomplete arm %+v", section, *a)
			}
			switch {
			case a.Order == "none" && !a.Collapsed:
				base = a
			case a.Order == "adi" && a.Collapsed:
				fast = a
			case a.Order != "none" && a.Order != "adi":
				t.Errorf("%s: unknown order %q", section, a.Order)
			}
		}
		if base == nil || fast == nil {
			t.Fatalf("%s: need a (none, uncollapsed) baseline and an (adi, collapsed) arm", section)
		}
		if fast.Faults >= base.Faults {
			t.Errorf("%s: collapsed list (%d) not smaller than universe (%d)", section, fast.Faults, base.Faults)
		}
		if fast.PassVectors >= base.PassVectors {
			t.Errorf("%s: no pass-vector reduction (%d vs %d)", section, fast.PassVectors, base.PassVectors)
		}
		return base, fast
	}

	if r := rep.Table3.CollapseRatio; r <= 0 || r >= 1 {
		t.Errorf("table3: collapse ratio %.2f out of (0, 1)", r)
	}
	if len(rep.Table3.Roster) == 0 {
		t.Error("table3: empty roster")
	}
	checkArms("table3", rep.Table3.Arms)
	if !rep.Table3.IdenticalTables {
		t.Error("table3: identical_tables must hold")
	}
	if rep.Table3.WorkReduction <= 0 || rep.Table3.WorkReduction >= 1 {
		t.Errorf("table3: work reduction %.2f not in (0, 1)", rep.Table3.WorkReduction)
	}
	if rep.Table3.TimeReduction <= 0 || rep.Table3.TimeReduction >= 1 {
		t.Errorf("table3: time reduction %.2f not in (0, 1)", rep.Table3.TimeReduction)
	}

	if rep.XL.Circuit == "" || rep.XL.Tests <= 0 || rep.XL.VectorsPerTest <= 0 {
		t.Errorf("xl: incomplete workload description: %+v", rep.XL)
	}
	if r := rep.XL.CollapseRatio; r <= 0 || r >= 1 {
		t.Errorf("xl: collapse ratio %.2f out of (0, 1)", r)
	}
	checkArms("xl", rep.XL.Arms)
	if !rep.XL.IdenticalDetection {
		t.Error("xl: identical_detection must hold")
	}
	if rep.XL.WorkReduction <= 0 || rep.XL.WorkReduction >= 1 {
		t.Errorf("xl: work reduction %.2f not in (0, 1)", rep.XL.WorkReduction)
	}
	if rep.XL.FirstKTests <= 0 || rep.XL.FirstKDropFraction <= 0 || rep.XL.FirstKDropFraction > 1 {
		t.Errorf("xl: first-k drop record invalid: k=%d fraction=%.2f", rep.XL.FirstKTests, rep.XL.FirstKDropFraction)
	}
}
