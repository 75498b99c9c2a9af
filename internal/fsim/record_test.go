package fsim

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/scan"
)

// TestRecordMatchesProfileAndDetect cross-checks the Record by-product
// against the two established observers: the detected set must equal
// Detect's, the first-PO times must equal those of the Profile's run,
// which has no final scan-out compare, and the scan-out-only flag must
// equal "detected, no PO detection, and the final-position state diff
// is observable" per the Profile.
func TestRecordMatchesProfileAndDetect(t *testing.T) {
	s, faults, seq, si := parallelFixture(t)
	last := len(seq) - 1

	for _, targets := range []*fault.Set{nil, firstHalf(len(faults))} {
		rec := s.RecordTest(si, seq, targets)
		det := s.DetectTest(si, seq, targets)
		prof := s.Profile(si, seq, targets)
		if !rec.Detected().Equal(det) {
			t.Fatal("Record detected set differs from Detect")
		}
		if rec.SeqLen() != len(seq) {
			t.Fatalf("SeqLen = %d, want %d", rec.SeqLen(), len(seq))
		}
		for f := 0; f < len(faults); f++ {
			if targets != nil && !targets.Has(f) {
				if rec.FirstPO(f) != -1 || rec.ScanOutOnly(f) {
					t.Fatalf("fault %d outside targets has record data", f)
				}
				continue
			}
			if got, want := rec.FirstPO(f), prof.Record().FirstPO(f); got != want {
				t.Fatalf("fault %d: FirstPO = %d, want %d", f, got, want)
			}
			wantSO := det.Has(f) && prof.Record().FirstPO(f) < 0 && prof.ScanOutDetects(f, last)
			if rec.ScanOutOnly(f) != wantSO {
				t.Fatalf("fault %d: ScanOutOnly = %v, want %v", f, rec.ScanOutOnly(f), wantSO)
			}
			if det.Has(f) != (rec.PODetected(f) || rec.ScanOutOnly(f)) {
				t.Fatalf("fault %d: detection criteria disagree", f)
			}
		}
	}
}

func firstHalf(n int) *fault.Set {
	set := fault.NewSet(n)
	for i := 0; i < n/2; i++ {
		set.Add(i)
	}
	return set
}

// TestRecordInvariance asserts the packing-independence invariant the
// ledger is built on: the record is bit-identical at every worker count
// and whichever faults share a pass. A simulator over the reversed
// fault list packs every pass differently; its record, mapped back
// through the permutation, must equal the reference.
func TestRecordInvariance(t *testing.T) {
	s, faults, seq, si := parallelFixture(t)
	ref := s.RecordTest(si, seq, nil)

	asc := make([]int, len(faults))
	rev := make([]int, len(faults))
	for i := range asc {
		asc[i], rev[i] = i, len(faults)-1-i
	}
	for _, workers := range []int{1, 4} {
		for _, perm := range [][]int{asc, rev} {
			got := New(s.Circuit(), Permuted(faults, perm)).SetWorkers(workers).RecordTest(si, seq, nil)
			same := got.seqLen == ref.seqLen && Unpermute(got.det, perm).Equal(ref.det)
			for i, f := range perm {
				same = same && got.first[i] == ref.first[f] && got.so[i] == ref.so[f]
			}
			if !same {
				t.Fatalf("workers=%d reversed=%v: record differs", workers, perm[0] != 0)
			}
		}
	}
}

// TestRecordPartialScan repeats the invariance check under a partial-scan
// chain, where scan-out observes only the scanned flip-flops.
func TestRecordPartialScan(t *testing.T) {
	c := gen.MustGenerate(gen.Params{Name: "recp", Seed: 9, PIs: 6, POs: 5, FFs: 16, Gates: 220})
	faults := fault.Collapse(c)
	ffs := make([]int, c.NumFFs()/2)
	for i := range ffs {
		ffs[i] = 2 * i
	}
	ch, err := scan.NewChain(c.NumFFs(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	seq := randomSeq(r, c.NumPIs(), 20)
	si := make(logic.Vector, len(ffs))
	for i := range si {
		si[i] = logic.Value(r.Intn(2))
	}
	ref := NewChain(c, faults, ch).RecordTest(si, seq, nil)
	if !ref.Detected().Equal(NewChain(c, faults, ch).DetectTest(si, seq, nil)) {
		t.Fatal("partial-scan record detected set differs from Detect")
	}
	s := NewChain(c, faults, ch)
	for _, workers := range []int{1, 4} {
		s.SetWorkers(workers)
		if got := s.RecordTest(si, seq, nil); !recordsEqual(ref, got) {
			t.Fatalf("partial scan workers=%d: record differs", workers)
		}
	}
}

func recordsEqual(a, b *Record) bool {
	if a.seqLen != b.seqLen || !a.det.Equal(b.det) {
		return false
	}
	for f := range a.first {
		if a.first[f] != b.first[f] || a.so[f] != b.so[f] {
			return false
		}
	}
	return true
}

// TestRecordMustMatchesDetectsAll checks the must-detect check and its
// record: the detected set passes and its record matches the full
// record on every must fault, any undetected fault fails the check, and
// an empty must set passes trivially.
func TestRecordMustMatchesDetectsAll(t *testing.T) {
	s, faults, seq, si := parallelFixture(t)
	det := s.DetectTest(si, seq, nil)
	full := s.RecordTest(si, seq, nil)
	undet := fault.NewFullSet(len(faults))
	undet.SubtractWith(det)
	if det.Count() == 0 || undet.Count() == 0 {
		t.Fatalf("fixture needs a mixed outcome, got %d/%d", det.Count(), len(faults))
	}
	opt := Options{Init: si, ScanOut: true}

	for _, workers := range []int{1, 4} {
		s.SetWorkers(workers)
		rec, ok := s.RecordMustInto(nil, seq, opt, det)
		if !ok {
			t.Fatalf("workers=%d: RecordMustInto rejected the detected set", workers)
		}
		if !rec.Detected().ContainsAll(det) {
			t.Fatalf("workers=%d: successful record incomplete over must", workers)
		}
		var bad bool
		det.ForEach(func(f int) {
			if rec.FirstPO(f) != full.FirstPO(f) || rec.ScanOutOnly(f) != full.ScanOutOnly(f) {
				bad = true
			}
		})
		if bad {
			t.Fatalf("workers=%d: must-record data differs from the full record", workers)
		}

		must := det.Clone()
		undet.ForEach(func(f int) { must.Add(f) })
		if _, ok := s.RecordMustInto(rec, seq, opt, must); ok {
			t.Fatalf("workers=%d: RecordMustInto accepted an undetectable set", workers)
		}
		if _, ok := s.RecordMustInto(rec, seq, opt, fault.NewSet(len(faults))); !ok {
			t.Fatalf("workers=%d: empty must-set should trivially pass", workers)
		}
	}
}

// TestRecordMustInto checks buffer reuse through a chain of calls: a nil
// buffer allocates, every subsequent call resets and refills the same
// buffer, and the data after each call — including a reuse right after
// a failed check, whose buffer contents are unspecified — matches a
// fresh nil-buffer call on the same input.
func TestRecordMustInto(t *testing.T) {
	s, faults, seq, si := parallelFixture(t)
	det := s.DetectTest(si, seq, nil)
	undet := fault.NewFullSet(len(faults))
	undet.SubtractWith(det)
	if det.Count() == 0 || undet.Count() == 0 {
		t.Fatalf("fixture needs a mixed outcome, got %d/%d", det.Count(), len(faults))
	}
	opt := Options{Init: si, ScanOut: true}
	impossible := det.Clone()
	undet.ForEach(func(f int) { impossible.Add(f) })

	var buf *Record
	for round, must := range []*fault.Set{det, impossible, det, firstHalf(len(faults)), det} {
		if round == 3 {
			must.IntersectWith(det)
		}
		want, wantOK := s.RecordMustInto(nil, seq, opt, must)
		got, ok := s.RecordMustInto(buf, seq, opt, must)
		if got == nil {
			t.Fatalf("round %d: RecordMustInto returned a nil buffer", round)
		}
		if buf != nil && got != buf {
			t.Fatalf("round %d: RecordMustInto did not reuse the buffer", round)
		}
		buf = got
		if ok != wantOK {
			t.Fatalf("round %d: verdict %v, fresh call says %v", round, ok, wantOK)
		}
		if !wantOK {
			continue
		}
		if !got.Detected().Equal(want.Detected()) {
			t.Fatalf("round %d: detected set differs from a fresh call", round)
		}
		for f := 0; f < len(faults); f++ {
			if got.FirstPO(f) != want.FirstPO(f) || got.ScanOutOnly(f) != want.ScanOutOnly(f) {
				t.Fatalf("round %d: fault %d row differs from a fresh call", round, f)
			}
		}
	}
}

// TestLedgerCounts checks the per-fault count bookkeeping against a
// brute-force recount through Append / Set / Drop churn.
func TestLedgerCounts(t *testing.T) {
	s, faults, seq, si := parallelFixture(t)
	recA := s.RecordTest(si, seq, nil)
	recB := s.RecordTest(si, seq[:len(seq)/2], nil)

	led := NewLedger(len(faults))
	led.Append(recA)
	led.Append(recB)
	led.Append(nil)
	led.Append(recA.Clone())
	led.Set(1, recA)
	led.Drop(3)
	if led.Len() != 4 {
		t.Fatalf("Len = %d, want 4", led.Len())
	}

	want := make([]int, len(faults))
	for i := 0; i < led.Len(); i++ {
		if r := led.Row(i); r != nil {
			r.Detected().ForEach(func(f int) { want[f]++ })
		}
	}
	counts := led.Counts()
	for f := range want {
		if counts[f] != want[f] {
			t.Fatalf("fault %d: count = %d, want %d", f, counts[f], want[f])
		}
	}
}

// TestRecordMerge checks that Merge overlays exactly the detected faults
// of the source record.
func TestRecordMerge(t *testing.T) {
	s, faults, seq, si := parallelFixture(t)
	full := s.RecordTest(si, seq, nil)
	half := firstHalf(len(faults))
	rest := fault.NewFullSet(len(faults))
	rest.SubtractWith(half)

	a := s.RecordTest(si, seq, half)
	b := s.RecordTest(si, seq, rest)
	a.Merge(b)
	if !recordsEqual(a, full) {
		t.Fatal("merged split records differ from the full record")
	}
}
