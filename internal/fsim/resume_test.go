package fsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/samples"
	"repro/internal/scan"
)

// resumeCircuits returns the circuits resumed runs are checked on:
// three roster circuits, the toggle and a generated circuit.
func resumeCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	var cs []*circuit.Circuit
	for _, name := range []string{"s298", "s382", "b06"} {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		cs = append(cs, c)
	}
	return append(cs, samples.Toggle(),
		gen.MustGenerate(gen.Params{Name: "rs", Seed: 17, PIs: 4, POs: 3, FFs: 9, Gates: 90}))
}

// randomVector returns n random values, every fifth one X.
func randomVector(r *rand.Rand, n int) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		v[i] = logic.Value(r.Intn(2))
		if r.Intn(5) == 0 {
			v[i] = logic.X
		}
	}
	return v
}

// checkResumed reports how rec, a run resumed at position q, differs
// from full, the full run of its test, over targets: it must equal full
// there and hold nothing else.
func checkResumed(rec, full *fsim.Record, q int, targets *fault.Set) error {
	if rec.SeqLen() != full.SeqLen() {
		return fmt.Errorf("q=%d: SeqLen %d, want %d", q, rec.SeqLen(), full.SeqLen())
	}
	for f := 0; f < full.NumFaults(); f++ {
		if !targets.Has(f) {
			if rec.Detected().Has(f) || rec.FirstPO(f) >= 0 || rec.ScanOutOnly(f) {
				return fmt.Errorf("q=%d: fault %d outside the targets has record data", q, f)
			}
			continue
		}
		if rec.FirstPO(f) != full.FirstPO(f) || rec.ScanOutOnly(f) != full.ScanOutOnly(f) ||
			rec.Detected().Has(f) != full.Detected().Has(f) {
			return fmt.Errorf("q=%d: fault %d: resumed (po %d, so %v, det %v), full (po %d, so %v, det %v)",
				q, f, rec.FirstPO(f), rec.ScanOutOnly(f), rec.Detected().Has(f),
				full.FirstPO(f), full.ScanOutOnly(f), full.Detected().Has(f))
		}
	}
	return nil
}

// unheld returns the faults no PO of full detects before position q:
// those a checkpoint at q holds.
func unheld(full *fsim.Record, q int) *fault.Set {
	set := fault.NewSet(full.NumFaults())
	for f := 0; f < full.NumFaults(); f++ {
		if !full.SafeBefore(f, q) {
			set.Add(f)
		}
	}
	return set
}

// firstN returns the first n members of set.
func firstN(set *fault.Set, n int) *fault.Set {
	out := fault.NewSet(set.Len())
	for _, f := range set.Indices()[:min(n, set.Count())] {
		out.Add(f)
	}
	return out
}

// checkpointPositions returns position 0 and every checkpoint of cp, for
// a test of seqLen vectors.
func checkpointPositions(cp *fsim.Checkpoints, seqLen int) []int {
	qs := []int{0}
	for p := 0; p < seqLen; p++ {
		if q := cp.Before(p); q != qs[len(qs)-1] {
			qs = append(qs, q)
		}
	}
	return qs
}

// resumeCase checks one test (si, seq) on s: the checkpoint run's
// record must equal an ordinary Record run's, and at every checkpoint,
// a resumed run over the faults it holds, and over at most 40 of them
// (a one-word kernel), must equal the full run there.
func resumeCase(s *fsim.Simulator, si logic.Vector, seq logic.Sequence, scanOut bool) error {
	opt := fsim.Options{Init: si, ScanOut: scanOut}
	full, cp := s.RecordCheckpoints(seq, opt)
	if want := s.Record(seq, opt); checkResumed(full, want, 0, fault.NewFullSet(s.NumFaults())) != nil {
		return fmt.Errorf("the checkpoint run's record differs from Record's")
	}
	for _, q := range checkpointPositions(cp, len(seq)) {
		held := unheld(full, q)
		for _, targets := range []*fault.Set{held, firstN(held, 40)} {
			if err := checkResumed(fsim.Resume(s, cp, q, seq[q:], targets), full, q, targets); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestResumeMatchesFullRun checks resumed runs against full runs: on
// roster, sample and generated circuits, at full scan and with every
// other flip-flop scanned, with a scan-in that carries X, at one and two
// workers and both kernel widths, from every checkpoint of random
// sequences of 1, 2, 7, 70 and 200 vectors. A resumed run's record
// must equal the full run's for every fault no PO detects before the
// checkpoint, and a target the checkpoint does not hold must panic.
func TestResumeMatchesFullRun(t *testing.T) {
	for _, c := range resumeCircuits(t) {
		faults := fault.Collapse(c)
		r := rand.New(rand.NewSource(int64(len(faults))))
		seqs := map[int]logic.Sequence{}
		for _, n := range []int{1, 2, 7, 70, 200} {
			seq := make(logic.Sequence, n)
			for u := range seq {
				seq[u] = randomVector(r, c.NumPIs())
			}
			seqs[n] = seq
		}
		for _, partial := range []bool{false, true} {
			var ch *scan.Chain
			if partial {
				ch = everyOther(t, c.NumFFs())
			}
			si := randomVector(r, scan.OrFull(ch, c.NumFFs()).Nsv())
			for _, workers := range []int{1, 2} {
				s := fsim.NewChain(c, faults, ch).SetWorkers(workers)
				for _, n := range []int{1, 2, 7, 70, 200} {
					if err := resumeCase(s, si, seqs[n], true); err != nil {
						t.Fatalf("%s partial=%v workers=%d L=%d: %v", c.Name, partial, workers, n, err)
					}
				}
				if !partial {
					if err := resumeCase(s, nil, seqs[70], false); err != nil {
						t.Fatalf("%s workers=%d no scan: %v", c.Name, workers, err)
					}
				}
			}
		}
	}
}

// TestResumePanicsOnUnheldTarget: a resumed run whose targets include a
// fault a primary output detected before the checkpoint, or that starts
// between checkpoints, must panic rather than simulate from a state it
// does not have.
func TestResumePanicsOnUnheldTarget(t *testing.T) {
	c, _ := gen.RosterCircuit("s298")
	faults := fault.Collapse(c)
	r := rand.New(rand.NewSource(5))
	seq := make(logic.Sequence, 70)
	for u := range seq {
		seq[u] = randomVector(r, c.NumPIs())
	}
	s := fsim.New(c, faults).SetWorkers(2)
	full, cp := s.RecordCheckpoints(seq, fsim.Options{Init: randomVector(r, c.NumFFs()), ScanOut: true})
	q := cp.Before(len(seq) - 1)
	targets := unheld(full, q)
	dropped := -1
	for f := 0; f < len(faults) && dropped < 0; f++ {
		if !targets.Has(f) {
			dropped = f
		}
	}
	if dropped < 0 {
		t.Fatal("no fault is PO-detected before the last checkpoint")
	}
	mustPanic := func(name string, run func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		run()
	}
	bad := targets.Clone()
	bad.Add(dropped)
	mustPanic("unheld target", func() { fsim.Resume(s, cp, q, seq[q:], bad) })
	mustPanic("unheld must", func() { s.ResumeMustInto(nil, cp, q, seq[q:], bad) })
	mustPanic("between checkpoints", func() { fsim.Resume(s, cp, q-1, seq[q-1:], targets) })
	fsim.Resume(s, cp, q, seq[q:], targets) // the held targets alone run
}

// TestRecordExtensions checks an extension run against one Record run
// per extended test, with and without targets, under both chains and
// at one and two workers. Every run after the first reuses the records
// of the one before.
func TestRecordExtensions(t *testing.T) {
	for _, c := range resumeCircuits(t) {
		faults := fault.Collapse(c)
		r := rand.New(rand.NewSource(int64(len(faults))))
		seq := make(logic.Sequence, 9)
		for u := range seq {
			seq[u] = randomVector(r, c.NumPIs())
		}
		vecs := make([]logic.Vector, 5)
		for i := range vecs {
			vecs[i] = randomVector(r, c.NumPIs())
		}
		for _, partial := range []bool{false, true} {
			var ch *scan.Chain
			if partial {
				ch = everyOther(t, c.NumFFs())
			}
			si := randomVector(r, scan.OrFull(ch, c.NumFFs()).Nsv())
			for _, workers := range []int{1, 2} {
				s := fsim.NewChain(c, faults, ch).SetWorkers(workers)
				var recs []*fsim.Record
				for _, targets := range []*fault.Set{nil, firstN(fault.NewFullSet(len(faults)), 40)} {
					all := targets
					if all == nil {
						all = fault.NewFullSet(len(faults))
					}
					recs = s.RecordExtensions(recs, si, seq, vecs, targets)
					for i, rec := range recs {
						want := s.RecordTest(si, append(seq.Clone(), vecs[i]), targets)
						if err := checkResumed(rec, want, 0, all); err != nil {
							t.Fatalf("%s partial=%v workers=%d vector %d: %v", c.Name, partial, workers, i, err)
						}
					}
				}
			}
		}
	}
}

// FuzzResume checks resumed runs on fuzzer-shaped circuits and tests,
// under full scan and a chain of every other flip-flop, resuming at the
// last checkpoint at or before the input's split point.
func FuzzResume(f *testing.F) {
	r := rand.New(rand.NewSource(9))
	for i, c := range []*circuit.Circuit{samples.S27(), samples.Toggle(), samples.ShiftReg(3)} {
		tst := scan.Test{SI: randomVector(r, c.NumFFs())}
		for u := 0; u < 12; u++ {
			tst.Seq = append(tst.Seq, randomVector(r, c.NumPIs()))
		}
		data, err := oracle.EncodeFuzz(c, tst)
		if err != nil {
			f.Fatalf("%s: corpus encode: %v", c.Name, err)
		}
		f.Add(data, uint8(3*i+2))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		c, tst, err := oracle.DecodeFuzz(data)
		if err != nil || len(tst.Seq) == 0 {
			t.Skip()
		}
		faults := fault.Collapse(c)
		for _, partial := range []bool{false, true} {
			var ch *scan.Chain
			si := tst.SI
			if partial {
				ch = everyOther(t, c.NumFFs())
				si = si[:ch.Nsv()]
			}
			s := fsim.NewChain(c, faults, ch)
			for _, scanOut := range []bool{true, false} {
				init := si
				if !scanOut {
					init = nil
				}
				full, cp := s.RecordCheckpoints(tst.Seq, fsim.Options{Init: init, ScanOut: scanOut})
				q := cp.Before(int(split) % len(tst.Seq))
				targets := unheld(full, q)
				if err := checkResumed(fsim.Resume(s, cp, q, tst.Seq[q:], targets), full, q, targets); err != nil {
					t.Fatalf("partial=%v scanOut=%v: %v", partial, scanOut, err)
				}
			}
		}
	})
}
