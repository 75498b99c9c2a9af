package fsim

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
)

// parallelFixture builds a circuit big enough to force several passes
// per run (1,104 collapsed faults, more than two wide passes).
func parallelFixture(t testing.TB) (*Simulator, []fault.Fault, logic.Sequence, logic.Vector) {
	t.Helper()
	c := gen.MustGenerate(gen.Params{Name: "par", Seed: 7, PIs: 6, POs: 5, FFs: 16, Gates: 220})
	faults := fault.Collapse(c)
	if len(faults) <= 2*(64*sim.WideWidth-1) {
		t.Fatalf("fixture too small: %d faults", len(faults))
	}
	r := rand.New(rand.NewSource(3))
	seq := randomSeq(r, c.NumPIs(), 24)
	si := make(logic.Vector, c.NumFFs())
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}
	return New(c, faults), faults, seq, si
}

// TestWorkersEquivalence checks that the detected set is bit-identical
// for any worker count, on fresh and on reused pool workers. Detection
// is exact per fault, so partitioning the fault list over passes and
// workers must not change any result.
func TestWorkersEquivalence(t *testing.T) {
	s, faults, seq, si := parallelFixture(t)
	opt := Options{Init: si, ScanOut: true}

	// Reference: fresh simulator, serial.
	ref := New(s.Circuit(), faults).Detect(seq, opt)

	for _, n := range []int{1, 2, 3, 8} {
		s.SetWorkers(n)
		// Twice per count: the second run reuses the pooled workers'
		// engines and buffers, which must carry nothing over.
		for rep := 0; rep < 2; rep++ {
			if got := s.Detect(seq, opt); !got.Equal(ref) {
				t.Fatalf("workers=%d rep=%d: detected set differs from serial", n, rep)
			}
		}
	}
}

// TestWorkersEquivalencePartialScan repeats the worker sweep under a
// partial-scan chain: scan-in indexing, power-up X on unscanned
// flip-flops and the reduced scan-out observability all must survive the
// fan-out unchanged.
func TestWorkersEquivalencePartialScan(t *testing.T) {
	c := gen.MustGenerate(gen.Params{Name: "parp", Seed: 8, PIs: 6, POs: 5, FFs: 16, Gates: 220})
	faults := fault.Collapse(c)
	ffs := make([]int, c.NumFFs()/2)
	for i := range ffs {
		ffs[i] = 2 * i
	}
	ch, err := scan.NewChain(c.NumFFs(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	seq := randomSeq(r, c.NumPIs(), 24)
	si := make(logic.Vector, len(ffs))
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}

	ref := NewChain(c, faults, ch).DetectTest(si, seq, nil)
	s := NewChain(c, faults, ch)
	for _, n := range []int{1, 3, 8} {
		s.SetWorkers(n)
		for rep := 0; rep < 2; rep++ {
			if got := s.DetectTest(si, seq, nil); !got.Equal(ref) {
				t.Fatalf("partial scan workers=%d rep=%d: detected set differs", n, rep)
			}
		}
	}
}

// TestConcurrentUse exercises one shared Simulator from many goroutines
// (mixed Detect / DetectTest / Profile / RecordMustInto traffic) and checks
// every call returns the same sets as a serial run. Run under -race this
// also proves the worker pool is data-race free.
func TestConcurrentUse(t *testing.T) {
	s, faults, seq, si := parallelFixture(t)
	s.SetWorkers(4)
	ref := New(s.Circuit(), faults).DetectTest(si, seq, nil)
	refNoScan := New(s.Circuit(), faults).Detect(seq, Options{Init: si})

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				switch g % 4 {
				case 0:
					if got := s.DetectTest(si, seq, nil); !got.Equal(ref) {
						errs <- "DetectTest result differs under concurrency"
					}
				case 1:
					if got := s.Detect(seq, Options{Init: si}); !got.Equal(refNoScan) {
						errs <- "Detect result differs under concurrency"
					}
				case 2:
					p := s.Profile(si, seq, nil)
					for f := 0; f < len(faults); f++ {
						if (p.Record().FirstPO(f) >= 0) != refNoScan.Has(f) {
							errs <- "Profile PO detections differ under concurrency"
							break
						}
					}
				case 3:
					if _, ok := s.RecordMustInto(nil, seq, Options{Init: si, ScanOut: true}, ref); !ok {
						errs <- "RecordMustInto rejected the reference set"
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestDetectsAllEarlyAbort checks the must-detect check over a
// multi-pass fault list: false as soon as any target is missed, true
// when the full list is detected, for serial and parallel runs.
func TestDetectsAllEarlyAbort(t *testing.T) {
	s, faults, seq, si := parallelFixture(t)
	det := s.DetectTest(si, seq, nil)
	if det.Count() == 0 || det.Count() == len(faults) {
		t.Fatalf("fixture needs a mixed outcome, got %d/%d", det.Count(), len(faults))
	}
	undet := fault.NewFullSet(len(faults))
	undet.SubtractWith(det)
	opt := Options{Init: si, ScanOut: true}
	for _, n := range []int{1, 4} {
		s.SetWorkers(n)
		if _, ok := s.RecordMustInto(nil, seq, opt, det); !ok {
			t.Errorf("workers=%d: the detected set must pass the check", n)
		}
		// Any undetected fault in the must-set forces a false answer,
		// whichever pass it lands in.
		must := det.Clone()
		undet.ForEach(func(f int) { must.Add(f) })
		if _, ok := s.RecordMustInto(nil, seq, opt, must); ok {
			t.Errorf("workers=%d: the check must fail with undetected faults", n)
		}
	}
}
