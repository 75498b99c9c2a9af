package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/workload"
)

// benchFsimArm is one measured configuration in BENCH_fsim.json.
type benchFsimArm struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
}

// benchFsimReport is the schema of BENCH_fsim.json: the serial-vs-
// parallel comparison of the Table 3 pipeline, plus the hardware context
// needed to interpret the speedup (on a 1-CPU host the arms tie).
type benchFsimReport struct {
	Date      string         `json:"date"`
	GoVersion string         `json:"go_version"`
	CPUs      int            `json:"cpus"`
	Workload  string         `json:"workload"`
	Roster    []string       `json:"roster"`
	Arms      []benchFsimArm `json:"arms"`
	Speedup   float64        `json:"speedup"`
	Identical bool           `json:"identical_tables"`
}

// TestEmitBenchFsimJSON measures the Table 3 pipeline with the fault-
// simulation fan-out at workers=1 and workers=NumCPU, checks the two
// arms render bit-identical tables, and writes BENCH_fsim.json. Gated
// behind BENCH_FSIM_JSON=1 so regular test runs stay fast.
func TestEmitBenchFsimJSON(t *testing.T) {
	if os.Getenv("BENCH_FSIM_JSON") == "" {
		t.Skip("set BENCH_FSIM_JSON=1 to measure and rewrite BENCH_fsim.json")
	}
	rep := benchFsimReport{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
		Workload:  "BenchmarkTable3ClockCycles pipeline (workload.RunAll, outer parallelism 1)",
		Roster:    benchRoster,
	}
	var tables []string
	for _, n := range []int{1, runtime.NumCPU()} {
		cfg := benchCfg()
		cfg.Workers = n
		start := time.Now()
		runs, err := workload.RunAll(benchRoster, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep.Arms = append(rep.Arms, benchFsimArm{Workers: n, Seconds: time.Since(start).Seconds()})
		tables = append(tables, workload.Table3(workload.Rows(runs)).Render())
	}
	rep.Identical = tables[0] == tables[1]
	if !rep.Identical {
		t.Error("table output differs between worker counts")
	}
	if s := rep.Arms[1].Seconds; s > 0 {
		rep.Speedup = rep.Arms[0].Seconds / s
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_fsim.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("workers=1 %.2fs, workers=%d %.2fs, speedup %.2fx (cpus=%d)",
		rep.Arms[0].Seconds, rep.Arms[1].Workers, rep.Arms[1].Seconds, rep.Speedup, rep.CPUs)
}

// benchKernelArm is one measured engine configuration in
// BENCH_kernel.json: the engine kind plus the batch width that keys it.
type benchKernelArm struct {
	Engine          string  `json:"engine"` // "interpreter" or "kernel"
	BatchWords      int     `json:"batch_words"`
	Slots           int     `json:"slots"` // fault slots per pass
	Seconds         float64 `json:"seconds"`
	FaultVecsPerSec float64 `json:"fault_vecs_per_sec"`
	Detected        int     `json:"detected"`
	Speedup         float64 `json:"speedup"` // vs the interpreter arm
}

// benchKernelCircuit is the width sweep on one roster circuit.
type benchKernelCircuit struct {
	Circuit   string           `json:"circuit"`
	Gates     int              `json:"gates"`
	FFs       int              `json:"ffs"`
	Faults    int              `json:"faults"`
	Vectors   int              `json:"vectors"`
	Arms      []benchKernelArm `json:"arms"`
	Identical bool             `json:"identical_detection"`
}

// benchKernelReport is the schema of BENCH_kernel.json: the compiled
// batch kernel against the interpreter baseline across batch widths, on
// a paper-roster circuit and an ISCAS-scale one. The acceptance figure
// is the best kernel speedup at W >= 4 words. The interpreter arm ran on
// fsim's retired interpreter pass, so the file can no longer be
// regenerated; it stays as the frozen record of the kernel's speedup.
type benchKernelReport struct {
	Date          string               `json:"date"`
	GoVersion     string               `json:"go_version"`
	CPUs          int                  `json:"cpus"`
	Workload      string               `json:"workload"`
	Circuits      []benchKernelCircuit `json:"circuits"`
	BestSpeedupW4 float64              `json:"best_speedup_w4plus"`
}

// TestBenchFsimJSONSchema validates the checked-in BENCH_fsim.json:
// parseable, no unknown fields, and the fields a reader of the speedup
// claim depends on are present.
func TestBenchFsimJSONSchema(t *testing.T) {
	raw, err := os.ReadFile("BENCH_fsim.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var rep benchFsimReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Date == "" || rep.GoVersion == "" || rep.CPUs < 1 || len(rep.Roster) == 0 {
		t.Errorf("missing context fields: %+v", rep)
	}
	if len(rep.Arms) < 2 {
		t.Fatalf("want >= 2 arms, got %d", len(rep.Arms))
	}
	if !rep.Identical {
		t.Error("identical_tables must hold")
	}
}

// TestBenchKernelJSONSchema validates the checked-in BENCH_kernel.json:
// arms keyed by engine kind and batch width, an interpreter baseline
// per circuit, identical detection everywhere, and the recorded
// acceptance figure of >= 3x at W >= 4 words.
func TestBenchKernelJSONSchema(t *testing.T) {
	raw, err := os.ReadFile("BENCH_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var rep benchKernelReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Date == "" || rep.GoVersion == "" || rep.CPUs < 1 {
		t.Errorf("missing context fields: %+v", rep)
	}
	if len(rep.Circuits) == 0 {
		t.Fatal("no circuits recorded")
	}
	for _, cc := range rep.Circuits {
		if cc.Circuit == "" || cc.Faults <= 0 || cc.Vectors <= 0 {
			t.Errorf("incomplete circuit record: %+v", cc)
		}
		if !cc.Identical {
			t.Errorf("%s: detection sets differ across widths", cc.Circuit)
		}
		var interp, kernel4 bool
		for _, a := range cc.Arms {
			switch a.Engine {
			case "interpreter":
				if a.BatchWords != 1 {
					t.Errorf("%s: interpreter arm at batch_words=%d", cc.Circuit, a.BatchWords)
				}
				interp = true
			case "kernel":
				if a.BatchWords < 2 {
					t.Errorf("%s: kernel arm at batch_words=%d", cc.Circuit, a.BatchWords)
				}
				if a.BatchWords >= 4 {
					kernel4 = true
				}
			default:
				t.Errorf("%s: unknown engine kind %q", cc.Circuit, a.Engine)
			}
			if a.Seconds <= 0 || a.FaultVecsPerSec <= 0 || a.Detected <= 0 {
				t.Errorf("%s/%s/w%d: incomplete arm: %+v", cc.Circuit, a.Engine, a.BatchWords, a)
			}
		}
		if !interp || !kernel4 {
			t.Errorf("%s: need an interpreter baseline and a kernel arm at W >= 4", cc.Circuit)
		}
	}
	if rep.BestSpeedupW4 < 3 {
		t.Errorf("best kernel speedup at W >= 4 is %.2fx, acceptance requires >= 3x", rep.BestSpeedupW4)
	}
}
