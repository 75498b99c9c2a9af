package fsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
)

func benchSetup(b *testing.B) (*Simulator, logic.Sequence, logic.Vector) {
	b.Helper()
	c := gen.MustGenerate(gen.Params{Name: "b", Seed: 2, PIs: 8, POs: 6, FFs: 32, Gates: 500})
	faults := fault.Collapse(c)
	s := New(c, faults)
	r := rand.New(rand.NewSource(1))
	seq := randomSeq(r, c.NumPIs(), 64)
	si := make(logic.Vector, c.NumFFs())
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}
	return s, seq, si
}

// BenchmarkDetectScanTest measures a full scan-test fault simulation
// (~1.2k collapsed faults, 64 vectors) with fault dropping.
func BenchmarkDetectScanTest(b *testing.B) {
	s, seq, si := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DetectTest(si, seq, nil)
	}
	b.ReportMetric(float64(s.NumFaults()), "faults")
}

// BenchmarkDetectScanTestWorkers compares the same scan-test simulation
// serial (workers=1) against the fan-out at NumCPU workers. The detected
// set is identical for every worker count; only wall-clock differs.
func BenchmarkDetectScanTestWorkers(b *testing.B) {
	for _, n := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			s, seq, si := benchSetup(b)
			s.SetWorkers(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.DetectTest(si, seq, nil)
			}
		})
	}
}

// BenchmarkDetectNoScan measures grading a sequence from the all-X state.
func BenchmarkDetectNoScan(b *testing.B) {
	s, seq, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Detect(seq, Options{})
	}
}

// BenchmarkProfile measures the per-time detection profile used by
// Phase 1 Step 3 (a Record run that also keeps scan-out bits).
func BenchmarkProfile(b *testing.B) {
	s, seq, si := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Profile(si, seq, nil)
	}
}

// benchKernelSetup builds the batch-kernel comparison fixture: a
// circuit whose collapsed fault list spans many passes at every width.
func benchKernelSetup(b *testing.B, name string) (*Simulator, logic.Sequence, logic.Vector) {
	b.Helper()
	c, ok := gen.RosterCircuit(name)
	if !ok {
		b.Fatalf("unknown roster circuit %q", name)
	}
	faults := fault.Collapse(c)
	s := New(c, faults)
	r := rand.New(rand.NewSource(1))
	seq := randomSeq(r, c.NumPIs(), 48)
	si := make(logic.Vector, s.Nsv())
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}
	return s, seq, si
}

// BenchmarkKernelWidths grades a scan test over target sets of 63, 127
// and 255 faults, spread evenly over the fault list: the pass width
// follows the target count, so 63 targets fill one pass at one word and
// the others one pass at the wide width. Spread targets put no two
// faults of one gate in one word. The first= arms grade the first 63
// and 255 faults in index order instead, as a pass over a whole fault
// list packs them: a gate's faults sit in adjacent slots, so several
// force one word. Throughput is reported as fault-vector evaluations
// per second.
func BenchmarkKernelWidths(b *testing.B) {
	for _, name := range []string{"s1423", "s35932xl"} {
		if name == "s35932xl" && testing.Short() {
			continue
		}
		for _, size := range []int{63, 127, 255} {
			b.Run(fmt.Sprintf("%s/targets=%d", name, size), func(b *testing.B) {
				benchGrade(b, name, size, func(k, n int) int { return k * n / size })
			})
		}
	}
	for _, name := range []string{"s298", "s1423"} {
		for _, size := range []int{63, 255} {
			b.Run(fmt.Sprintf("%s/first=%d", name, size), func(b *testing.B) {
				benchGrade(b, name, size, func(k, _ int) int { return k })
			})
		}
	}
}

// benchGrade times DetectTest on circuit name over size targets, the
// k-th being fault pick(k, n) of the n collapsed faults.
func benchGrade(b *testing.B, name string, size int, pick func(k, n int) int) {
	s, seq, si := benchKernelSetup(b, name)
	n := s.NumFaults()
	targets := fault.NewSet(n)
	for k := 0; k < size; k++ {
		targets.Add(pick(k, n))
	}
	b.ResetTimer()
	var det int
	for i := 0; i < b.N; i++ {
		det = s.DetectTest(si, seq, targets).Count()
	}
	b.StopTimer()
	b.ReportMetric(float64(size)*float64(len(seq))*float64(b.N)/b.Elapsed().Seconds(), "fault-vecs/s")
	b.ReportMetric(float64(det), "detected")
}
