package repro

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/adi"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/vecomit"
)

// benchCompactArm is one measured compaction configuration of the
// Table 3 pipeline. Phase timings and engine stats are summed over the
// roster and over both proposed arms (directed and random T_0).
type benchCompactArm struct {
	Ledger    bool `json:"ledger"`
	Speculate int  `json:"speculate"`
	Workers   int  `json:"workers"`

	Seconds         float64 `json:"seconds"`          // full pipeline wall-clock
	Phase1Seconds   float64 `json:"phase1_seconds"`   // scan-in/out selection
	Phase2Seconds   float64 `json:"phase2_seconds"`   // vector omission + tau_C grading
	Phase3Seconds   float64 `json:"phase3_seconds"`   // top-up tests
	Phase4Seconds   float64 `json:"phase4_seconds"`   // static combining + final accounting
	Phase234Seconds float64 `json:"phase234_seconds"` // the compaction-loop portion the ledger targets

	OmitChecks            int `json:"omit_checks"`             // committed omission trials
	OmitFreeRemovals      int `json:"omit_free_removals"`      // removals with an empty risk set, no simulation
	OmitFaultsSimulated   int `json:"omit_faults_simulated"`   // fault slots across all Phase 2 trials
	StaticAttempts        int `json:"static_attempts"`         // committed combination trials
	StaticShortCircuits   int `json:"static_short_circuits"`   // combinations committed without simulation
	StaticFaultsSimulated int `json:"static_faults_simulated"` // fault slots across all Phase 4 trials
	SpecDiscarded         int `json:"spec_discarded"`          // speculative trials discarded after an earlier accept
}

// benchCompactTable3 compares the detection-ledger engines against the
// pre-ledger serial loops on the Table 3 pipeline. The acceptance
// figure is the Phase 2-4 wall-clock speedup of the ledger arm over the
// no-ledger baseline at workers=1; every arm must render bit-identical
// tables.
type benchCompactTable3 struct {
	Roster           []string          `json:"roster"`
	Arms             []benchCompactArm `json:"arms"`
	Phase234Speedup  float64           `json:"phase234_speedup"` // baseline / ledger, acceptance >= 1.5
	TrialsSaved      float64           `json:"trials_saved"`     // 1 - ledger fault slots / baseline fault slots
	IdenticalTables  bool              `json:"identical_tables"` // all arms, every workers x speculate setting
	IdentitySettings int               `json:"identity_settings"`
}

// benchCompactXLArm is one measured omission arm on the ISCAS-scale
// circuit.
type benchCompactXLArm struct {
	Ledger          bool    `json:"ledger"`
	Seconds         float64 `json:"seconds"`
	Removed         int     `json:"removed"`
	Checks          int     `json:"checks"`
	FreeRemovals    int     `json:"free_removals"`
	FaultsSimulated int     `json:"faults_simulated"`
}

// benchCompactXL is the ISCAS-scale section on gen.XLRoster's s35932xl.
// The headline is the cost of populating the detection ledger: one full
// grading pass with RecordTest (first PO-detect position + scan-out
// flag per fault) against the same pass with DetectTest (detected set
// only) — the ledger must be a cheap by-product of grading. The omission
// arms record the before/after trial counts; a random test at this
// scale has no accepted removals (every omission puts thousands of
// single-position detections at risk), so the two engines run the same
// trials and the point of the arms is byte-identity, not savings.
type benchCompactXL struct {
	Circuit            string              `json:"circuit"`
	Vectors            int                 `json:"vectors"`
	Faults             int                 `json:"faults"`
	Detected           int                 `json:"detected"`
	GradeSeconds       float64             `json:"grade_seconds"`       // DetectTest: detected set only
	RecordSeconds      float64             `json:"record_seconds"`      // RecordTest: detected set + ledger rows
	RecordOverhead     float64             `json:"record_overhead"`     // record/grade - 1, acceptance <= 0.25
	IdenticalDetection bool                `json:"identical_detection"` // RecordTest and DetectTest agree
	Arms               []benchCompactXLArm `json:"arms"`
	IdenticalResult    bool                `json:"identical_result"`
}

// benchCompactReport is the schema of BENCH_compact.json, the frozen
// record of the ledger engines measured against the pre-ledger loops.
// Those loops are gone, so the file is no longer regenerated; the
// schema test keeps it readable and its claims consistent.
type benchCompactReport struct {
	Date      string             `json:"date"`
	GoVersion string             `json:"go_version"`
	CPUs      int                `json:"cpus"`
	Workload  string             `json:"workload"`
	Table3    benchCompactTable3 `json:"table3"`
	XL        benchCompactXL     `json:"xl"`
}

// TestBenchCompactJSONSchema validates the checked-in BENCH_compact.json:
// parseable with no unknown fields, a no-ledger baseline and a ledger
// arm at workers=1, bit-identical tables across every recorded setting,
// the >= 1.5x Phase 2-4 acceptance speedup, and a genuine fault-slot
// reduction in both sections.
func TestBenchCompactJSONSchema(t *testing.T) {
	raw, err := os.ReadFile("BENCH_compact.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var rep benchCompactReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Date == "" || rep.GoVersion == "" || rep.CPUs < 1 {
		t.Errorf("missing context fields: %+v", rep)
	}
	if len(rep.Table3.Roster) == 0 {
		t.Error("table3: empty roster")
	}
	var base, fast *benchCompactArm
	for i := range rep.Table3.Arms {
		a := &rep.Table3.Arms[i]
		if a.Seconds <= 0 || a.Phase234Seconds <= 0 || a.OmitChecks <= 0 || a.StaticAttempts <= 0 {
			t.Errorf("table3: incomplete arm %+v", *a)
		}
		switch {
		case !a.Ledger && a.Speculate == 0 && a.Workers == 1:
			base = a
		case a.Ledger && a.Speculate == 0 && a.Workers == 1:
			fast = a
		}
		if !a.Ledger && a.SpecDiscarded != 0 {
			t.Errorf("table3: no-ledger arm recorded %d discarded speculative trials", a.SpecDiscarded)
		}
	}
	if base == nil || fast == nil {
		t.Fatal("table3: need a (no-ledger, serial) baseline and a (ledger, serial) arm at workers=1")
	}
	// Committed removals are part of the byte-identity contract: the
	// ledger changes which trials need simulation (its exact risk set
	// can be empty where the legacy superset is not, turning a Check
	// into a FreeRemoval), never which commit.
	if base.OmitChecks+base.OmitFreeRemovals != fast.OmitChecks+fast.OmitFreeRemovals ||
		base.StaticAttempts != fast.StaticAttempts {
		t.Errorf("table3: committed trials differ between baseline (%d/%d) and ledger (%d/%d)",
			base.OmitChecks+base.OmitFreeRemovals, base.StaticAttempts,
			fast.OmitChecks+fast.OmitFreeRemovals, fast.StaticAttempts)
	}
	if fs, bs := fast.OmitFaultsSimulated+fast.StaticFaultsSimulated, base.OmitFaultsSimulated+base.StaticFaultsSimulated; fs >= bs {
		t.Errorf("table3: ledger fault slots %d not below baseline %d", fs, bs)
	}
	if fast.OmitFreeRemovals <= 0 && fast.StaticShortCircuits <= 0 {
		t.Error("table3: ledger arm recorded no free removals and no short-circuits")
	}
	if !rep.Table3.IdenticalTables {
		t.Error("table3: identical_tables must hold")
	}
	if rep.Table3.IdentitySettings < 4 {
		t.Errorf("table3: identity checked across %d settings, want >= 4 (workers x speculate grid)", rep.Table3.IdentitySettings)
	}
	if rep.Table3.Phase234Speedup < 1.5 {
		t.Errorf("table3: phase 2-4 speedup %.2fx below the 1.5x acceptance", rep.Table3.Phase234Speedup)
	}
	if rep.Table3.TrialsSaved <= 0 || rep.Table3.TrialsSaved >= 1 {
		t.Errorf("table3: trials_saved %.2f not in (0, 1)", rep.Table3.TrialsSaved)
	}

	if rep.XL.Circuit == "" || rep.XL.Vectors <= 0 || rep.XL.Faults <= 0 || rep.XL.Detected <= 0 {
		t.Errorf("xl: incomplete workload description: %+v", rep.XL)
	}
	if rep.XL.GradeSeconds <= 0 || rep.XL.RecordSeconds <= 0 {
		t.Errorf("xl: missing grading timings: %+v", rep.XL)
	}
	if rep.XL.RecordOverhead > 0.25 {
		t.Errorf("xl: ledger population overhead %.1f%% above the 25%% by-product bound",
			100*rep.XL.RecordOverhead)
	}
	if !rep.XL.IdenticalDetection {
		t.Error("xl: identical_detection must hold")
	}
	var legacy, ledger *benchCompactXLArm
	for i := range rep.XL.Arms {
		a := &rep.XL.Arms[i]
		if a.Seconds <= 0 || a.Checks <= 0 || a.FaultsSimulated <= 0 {
			t.Errorf("xl: incomplete arm %+v", *a)
		}
		if a.Ledger {
			ledger = a
		} else {
			legacy = a
		}
	}
	if legacy == nil || ledger == nil {
		t.Fatal("xl: need a legacy arm and a ledger arm")
	}
	if legacy.Removed != ledger.Removed ||
		legacy.Checks+legacy.FreeRemovals != ledger.Checks+ledger.FreeRemovals {
		t.Errorf("xl: committed work differs: legacy %d removed/%d trials, ledger %d/%d",
			legacy.Removed, legacy.Checks+legacy.FreeRemovals,
			ledger.Removed, ledger.Checks+ledger.FreeRemovals)
	}
	if ledger.FaultsSimulated > legacy.FaultsSimulated {
		t.Errorf("xl: ledger fault slots %d above legacy %d", ledger.FaultsSimulated, legacy.FaultsSimulated)
	}
	if !rep.XL.IdenticalResult {
		t.Error("xl: identical_result must hold")
	}
}

// --- ISCAS-scale ledger population check ---

const xlCircuit = "s35932xl"

// TestRecordOverheadXL grades one random scan test of the ISCAS-scale
// circuit twice, with DetectTest and with RecordTest. The two must
// agree on the detected set, and populating the detection ledger (first
// PO-detect position + scan-out flag per fault) must stay a cheap
// by-product of grading: at most 25% over DetectTest. Gated behind
// BENCH_COMPACT_XL=1, since it simulates s35932xl and times the passes.
func TestRecordOverheadXL(t *testing.T) {
	if os.Getenv("BENCH_COMPACT_XL") == "" {
		t.Skip("set BENCH_COMPACT_XL=1 to check the ledger population overhead on " + xlCircuit)
	}
	c, ok := gen.RosterCircuit(xlCircuit)
	if !ok {
		t.Fatalf("unknown roster circuit %q", xlCircuit)
	}
	faults := fault.Collapse(c)
	s := fsim.New(c, faults)
	adi.Install(s, adi.Options{Seed: 7})
	r := rand.New(rand.NewSource(7))
	si := make(logic.Vector, c.NumFFs())
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}
	seq := make(logic.Sequence, 48)
	for u := range seq {
		seq[u] = make(logic.Vector, c.NumPIs())
		for i := range seq[u] {
			seq[u][i] = logic.Value(r.Intn(2))
		}
	}
	// A first grading warms the good-machine trace cache for both timed
	// passes.
	keep := s.DetectTest(si, seq, nil)

	start := time.Now()
	det := s.DetectTest(si, seq, nil)
	grade := time.Since(start).Seconds()
	start = time.Now()
	rec := s.RecordTest(si, seq, nil)
	record := time.Since(start).Seconds()
	overhead := record/grade - 1
	t.Logf("%s: %d faults, %d detected; detect %.2fs, record %.2fs, overhead %.1f%%",
		xlCircuit, s.NumFaults(), keep.Count(), grade, record, 100*overhead)
	if !rec.Detected().Equal(det) || !det.Equal(keep) {
		t.Error("RecordTest and DetectTest disagree on the detected set")
	}
	if overhead > 0.25 {
		t.Errorf("ledger population overhead %.1f%% above the 25%% by-product bound", 100*overhead)
	}
}

// --- Phase 2 omission benchmark ---

// ledgerOmissionFixture memoizes the omission benchmark inputs on a
// mid-size roster circuit so the benchmark (and the CI smoke run at
// -benchtime 1x) times only the omission loop.
type ledgerOmissionFixture struct {
	sim  *fsim.Simulator
	test scan.Test
	keep *fault.Set
}

var (
	omitOnce sync.Once
	omitFx   ledgerOmissionFixture
)

func omissionSetup(b *testing.B) *ledgerOmissionFixture {
	b.Helper()
	omitOnce.Do(func() {
		c, ok := gen.RosterCircuit("s1423")
		if !ok {
			panic("unknown roster circuit s1423")
		}
		faults := fault.Collapse(c)
		s := fsim.New(c, faults)
		adi.Install(s, adi.Options{Seed: 3})
		r := rand.New(rand.NewSource(3))
		si := make(logic.Vector, c.NumFFs())
		for i := range si {
			si[i] = logic.Value(r.Intn(2))
		}
		seq := make(logic.Sequence, 40)
		for u := range seq {
			seq[u] = make(logic.Vector, c.NumPIs())
			for i := range seq[u] {
				seq[u][i] = logic.Value(r.Intn(2))
			}
		}
		keep := s.DetectTest(si, seq, nil)
		omitFx = ledgerOmissionFixture{sim: s, test: scan.Test{SI: si, Seq: seq}, keep: keep}
	})
	return &omitFx
}

// BenchmarkLedgerOmission times Phase 2 vector omission on one random
// scan test of a mid-size circuit. CI runs it once (-benchtime 1x) as a
// smoke check.
func BenchmarkLedgerOmission(b *testing.B) {
	fx := omissionSetup(b)
	b.ResetTimer()
	var removed int
	for i := 0; i < b.N; i++ {
		out, st := vecomit.CompactTest(fx.sim, fx.test, fx.keep, vecomit.Options{})
		if len(out.Seq) >= len(fx.test.Seq) && st.Removed > 0 {
			b.Fatal("omission reported removals without shortening the test")
		}
		removed = st.Removed
	}
	b.ReportMetric(float64(removed), "removed")
}
