package fsim_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/esim"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/samples"
	"repro/internal/scan"
)

// frameArm is one way of choosing the frames of every pass: the sweep,
// event frames throughout, or event frames falling back to the sweep
// after frame k.
type frameArm struct {
	name  string
	force func(*fsim.Simulator)
}

func frameArms(seqLen int) []frameArm {
	arms := []frameArm{
		{"sweep", fsim.ForceSweep},
		{"events", func(s *fsim.Simulator) { fsim.ForceEvents(s, -1) }},
	}
	for _, k := range []int{0, seqLen / 2} {
		arms = append(arms, frameArm{fmt.Sprintf("fallback@%d", k), func(s *fsim.Simulator) { fsim.ForceEvents(s, k) }})
	}
	return arms
}

// eventFixture is a circuit, its scan chain, an X-bearing sequence and
// a scan-in vector.
type eventFixture struct {
	c   *circuit.Circuit
	ch  *scan.Chain // nil: full scan
	seq logic.Sequence
	si  logic.Vector
}

func newEventFixture(t testing.TB, c *circuit.Circuit, partial bool, seed int64) eventFixture {
	t.Helper()
	fx := eventFixture{c: c}
	nsv := c.NumFFs()
	if partial {
		fx.ch = everyOther(t, c.NumFFs())
		nsv = fx.ch.Nsv()
	}
	r := rand.New(rand.NewSource(seed))
	val := func() logic.Value {
		if r.Intn(10) == 0 {
			return logic.X
		}
		return logic.Value(r.Intn(2))
	}
	fx.seq = make(logic.Sequence, 10)
	for u := range fx.seq {
		fx.seq[u] = make(logic.Vector, c.NumPIs())
		for i := range fx.seq[u] {
			fx.seq[u][i] = val()
		}
	}
	fx.si = make(logic.Vector, nsv)
	for i := range fx.si {
		fx.si[i] = val()
	}
	return fx
}

// transcript is the outcome of a run of simulations, one line per
// result or counter delta, in a fixed order.
type transcript []string

func (tr *transcript) add(format string, args ...any) {
	*tr = append(*tr, fmt.Sprintf(format, args...))
}

// diff names the first line where got differs from want.
func (tr transcript) diff(want transcript) string {
	for i := range min(len(tr), len(want)) {
		if tr[i] != want[i] {
			return fmt.Sprintf("line %d: got %.200s, want %.200s", i, tr[i], want[i])
		}
	}
	if len(tr) != len(want) {
		return fmt.Sprintf("%d lines, want %d", len(tr), len(want))
	}
	return ""
}

// eventRuns drives every fault-parallel entry point of s over fx and
// returns their results and the pass counters each one moved, plus the
// detected sets of Detect without scan and of DetectTest on nil and on
// each subset. The target subset of 40 faults runs at one word, those
// of 100, 150 and 250 faults at the wide width. A rejected must-detect
// check aborts passes that other workers have in flight, so its
// counters are left out when s runs parallel.
func eventRuns(s *fsim.Simulator, fx eventFixture, subsets []*fault.Set) (tr transcript, noScan *fault.Set, tests []*fault.Set) {
	step := func(name string, f func() string) {
		before := s.Stats()
		out := f()
		tr.add("%s: %s", name, out)
		if s.Workers() == 1 || !strings.HasSuffix(name, "reject") {
			tr.add("%s stats: %+v", name, s.Stats().Sub(before))
		}
	}
	n := s.NumFaults()
	step("Detect", func() string {
		noScan = s.Detect(fx.seq, fsim.Options{})
		return fmt.Sprint(noScan.Indices())
	})
	for k, tg := range append([]*fault.Set{nil}, subsets...) {
		step(fmt.Sprintf("DetectTest %d", k), func() string {
			tests = append(tests, s.DetectTest(fx.si, fx.seq, tg))
			return fmt.Sprint(tests[k].Indices())
		})
		step(fmt.Sprintf("RecordTest %d", k), func() string { return recordString(s.RecordTest(fx.si, fx.seq, tg)) })
		step(fmt.Sprintf("Profile %d", k), func() string { return profileString(s.Profile(fx.si, fx.seq, tg)) })
	}
	opt := fsim.Options{Init: fx.si, ScanOut: true}
	det := tests[0]
	step("RecordMustInto accept", func() string {
		rec, ok := s.RecordMustInto(nil, fx.seq, opt, det)
		return fmt.Sprintf("%v %s", ok, recordString(rec))
	})
	if undet := fault.NewFullSet(n); undet.Count() > det.Count() {
		undet.SubtractWith(det)
		must := det.Clone()
		must.Add(undet.Indices()[0])
		step("RecordMustInto reject", func() string {
			_, ok := s.RecordMustInto(nil, fx.seq, opt, must)
			return fmt.Sprint(ok)
		})
	}
	return tr, noScan, tests
}

func recordString(r *fsim.Record) string {
	var b strings.Builder
	r.Detected().ForEach(func(f int) { fmt.Fprintf(&b, "%d:%d:%v ", f, r.FirstPO(f), r.ScanOutOnly(f)) })
	return b.String()
}

func profileString(p *fsim.Profile) string {
	var b strings.Builder
	rec := p.Record()
	for f := range rec.NumFaults() {
		fmt.Fprintf(&b, "%d:%d:", f, rec.FirstPO(f))
		for u := 0; u < rec.SeqLen(); u++ {
			if p.ScanOutDetects(f, u) {
				fmt.Fprintf(&b, "%d,", u)
			}
		}
		b.WriteByte(' ')
	}
	return b.String()
}

// TestEventFrames is the differential test of the event frames: on
// roster circuits and a shift register (whose D drivers are flip-flops),
// under full scan and a chain of every other flip-flop, every
// fault-parallel entry point returns the same results and moves the
// pass counters the same way whether its passes sweep, run event frames
// throughout, or fall back to the sweep after frame 0 or mid-sequence,
// at 1 and 2 workers. The simulators run over the fault list in a
// random order, and every arm's detected sets, mapped back through the
// permutation, equal the oracle's over up to 250 of the faults.
//
// Event frames drop a fault once it is detected. So every fixture must
// detect some fault at a PO while its effect is still latched in a
// scanned flip-flop before the last vector: a drop that merged the
// wrong words, or kept them diverged, would then change a later
// detection or a profile, and a swept frame that recorded the scan-out
// of a detected slot would give a profile the event frames do not.
func TestEventFrames(t *testing.T) {
	circuits := []*circuit.Circuit{samples.ShiftReg(6)}
	for _, name := range []string{"s298", "b04", "s1423", "s5378"} {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		circuits = append(circuits, c)
	}
	for ci, c := range circuits {
		for _, partial := range []bool{false, true} {
			name := c.Name + "/full"
			if partial {
				name = c.Name + "/partial"
			}
			t.Run(name, func(t *testing.T) {
				fx := newEventFixture(t, c, partial, int64(ci))
				faults := fault.Collapse(c)
				n := len(faults)
				r := rand.New(rand.NewSource(int64(n)))
				order := r.Perm(n)
				pfaults := fsim.Permuted(faults, order)
				// Nested subsets: the oracle grades the largest one (or the
				// whole list), and each smaller one is a restriction of it.
				perm := r.Perm(n)
				graded := fault.NewFullSet(n)
				var subsets []*fault.Set
				for _, size := range []int{40, 100, 150, 250} {
					if size < n {
						graded = fault.NewSet(n)
						for _, f := range perm[:size] {
							graded.Add(f)
						}
						subsets = append(subsets, graded)
					}
				}
				if !latchedDetection(c, faults, fx) {
					t.Fatal("no fault is detected at a PO while its effect is latched")
				}
				orc := oracle.NewChain(c, faults, fx.ch)
				wantNoScan := orc.Detect(fx.seq, oracle.Options{Targets: graded})
				wantTest := orc.DetectTest(fx.si, fx.seq, graded)
				psubsets := make([]*fault.Set, len(subsets))
				for k, sub := range subsets {
					psubsets[k] = fsim.PermuteSet(sub, order)
				}

				for _, workers := range []int{1, 2} {
					var sweep transcript
					for _, arm := range frameArms(len(fx.seq)) {
						s := fsim.NewChain(c, pfaults, fx.ch).SetWorkers(workers)
						arm.force(s)
						tr, noScan, tests := eventRuns(s, fx, psubsets)
						if got := restrict(fsim.Unpermute(noScan, order), graded); !got.Equal(wantNoScan) {
							t.Fatalf("workers %d, %s: Detect without scan: %d detected, oracle %d", workers, arm.name, got.Count(), wantNoScan.Count())
						}
						for k, tg := range append([]*fault.Set{nil}, subsets...) {
							got := restrict(fsim.Unpermute(tests[k], order), graded)
							if want := restrict(wantTest, tg); !got.Equal(want) {
								t.Fatalf("workers %d, %s: DetectTest: %d detected, oracle %d", workers, arm.name, got.Count(), want.Count())
							}
						}
						if sweep == nil {
							sweep = tr
						} else if d := tr.diff(sweep); d != "" {
							t.Fatalf("workers %d, %s differs from the sweep: %s", workers, arm.name, d)
						}
					}
				}
			})
		}
	}
}

// latchedDetection reports whether fx's scan test first detects some
// fault at a PO at a vector u before the last while a scan-out after u
// would also detect it. Each fault runs on its own esim engine against
// the good machine's trace, so the answer does not rest on fsim.
func latchedDetection(c *circuit.Circuit, faults []fault.Fault, fx eventFixture) bool {
	ch := scan.OrFull(fx.ch, c.NumFFs())
	state := ch.State(fx.si)
	differ := func(g, f logic.Value) bool { return g.IsBinary() && f.IsBinary() && g != f }
	good := esim.New(c)
	good.SetStateVector(state)
	po := make([]logic.Vector, len(fx.seq))
	ffs := make([]logic.Vector, len(fx.seq)) // the chain's flip-flops after each clock
	for u, vec := range fx.seq {
		good.SetPIVector(vec)
		good.Settle()
		po[u] = good.POVector()
		good.ClockFF()
		for _, ff := range ch.FFs {
			ffs[u] = append(ffs[u], good.Val(c.DFFs[ff]))
		}
	}
	for _, f := range faults {
		e := esim.New(c)
		e.InjectFault(f.Node, f.Pin, f.Stuck)
		e.SetStateVector(state)
		for u, vec := range fx.seq[:len(fx.seq)-1] {
			e.SetPIVector(vec)
			e.Settle()
			detected := false
			for i, g := range po[u] {
				detected = detected || differ(g, e.PO(i))
			}
			e.ClockFF()
			if !detected {
				continue
			}
			for k, ff := range ch.FFs {
				if differ(ffs[u][k], e.Val(c.DFFs[ff])) {
					return true
				}
			}
			break
		}
	}
	return false
}

// TestEventFramesGate: unforced, runs over a large fault list (past the
// pass-count gate) and over a small one detect what the sweep detects
// and move the counters as it does. On b04, with the faults packed in a
// random order (the simulators run over a permuted fault list, each
// target set mapped onto it), a full-width pass injects more gates than
// the event limit, so a one-vector run of eight such passes (no
// repacking) starts each on the sweep and simulates no trace row; on
// s35932xl the passes start on event frames. Under forced event
// frames an empty sequence detects nothing.
func TestEventFramesGate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		targets int  // random targets; 0: the whole list and 300 of it
		vectors int  // the fixture's first vectors; 0: all of them
		shuffle bool // simulate a permuted fault list, not the ascending one
		rows    int  // trace rows: 0 none, 1 some, -1 unchecked
	}{
		{"s5378", 0, 0, false, -1},
		{"b04", 8 * 255, 1, true, 0},
		{"s35932xl", 2100, 0, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := gen.RosterCircuit(tc.name)
			faults := fault.Collapse(c)
			fx := newEventFixture(t, c, false, 3)
			if tc.vectors > 0 {
				fx.seq = fx.seq[:tc.vectors]
			}
			r := rand.New(rand.NewSource(4))
			runs := []*fault.Set{nil, randomTargets(r, len(faults), 300)}
			if tc.targets > 0 {
				runs = []*fault.Set{randomTargets(r, len(faults), tc.targets)}
			}
			list := faults
			if tc.shuffle {
				perm := r.Perm(len(faults))
				list = fsim.Permuted(faults, perm)
				for k, tg := range runs {
					runs[k] = fsim.PermuteSet(tg, perm)
				}
			}
			sweep := fsim.New(c, list)
			fsim.ForceSweep(sweep)
			gated := fsim.New(c, list)
			for _, tg := range runs {
				want := sweep.DetectTest(fx.si, fx.seq, tg)
				before := gated.Stats()
				if got := gated.DetectTest(fx.si, fx.seq, tg); !got.Equal(want) {
					t.Fatalf("gated run detects %d, the sweep %d", got.Count(), want.Count())
				}
				if d, w := gated.Stats().Sub(before), sweep.Stats(); d != w {
					t.Fatalf("gated run counters %+v, the sweep's %+v", d, w)
				}
				sweep.ResetStats()
			}
			if rows := fsim.TraceRows(gated); tc.rows >= 0 && (rows > 0) != (tc.rows > 0) {
				t.Fatalf("the gated runs simulated %d trace rows", rows)
			}
			fsim.ForceEvents(gated, -1)
			if got := gated.DetectTest(fx.si, nil, nil); got.Count() != 0 {
				t.Fatalf("empty sequence detects %d faults", got.Count())
			}
		})
	}
}

// FuzzEventFrames grades decoded fuzz circuits (oracle.DecodeFuzz) with
// every frame arm, under full scan and a chain of every other
// flip-flop: DetectTest and Detect without scan must equal the
// oracle's, and Profile must equal the sweep's.
func FuzzEventFrames(f *testing.F) {
	for i, c := range []*circuit.Circuit{samples.S27(), samples.Toggle(), samples.ShiftReg(3), samples.Comb4()} {
		fx := newEventFixture(f, c, false, int64(i))
		data, err := oracle.EncodeFuzz(c, scan.Test{SI: fx.si, Seq: fx.seq})
		if err != nil {
			f.Fatalf("%s: corpus encode: %v", c.Name, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, tst, err := oracle.DecodeFuzz(data)
		if err != nil {
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
			orc := oracle.NewChain(c, faults, ch)
			want := orc.DetectTest(si, tst.Seq, nil)
			wantNoScan := orc.Detect(tst.Seq, oracle.Options{})
			var sweep string
			for _, arm := range frameArms(len(tst.Seq)) {
				s := fsim.NewChain(c, faults, ch)
				arm.force(s)
				if got := s.DetectTest(si, tst.Seq, nil); !got.Equal(want) {
					t.Fatalf("partial %v, %s: DetectTest detects %v, oracle %v", partial, arm.name, got.Indices(), want.Indices())
				}
				if got := s.Detect(tst.Seq, fsim.Options{}); !got.Equal(wantNoScan) {
					t.Fatalf("partial %v, %s: Detect without scan detects %v, oracle %v", partial, arm.name, got.Indices(), wantNoScan.Indices())
				}
				prof := profileString(s.Profile(si, tst.Seq, nil))
				if sweep == "" {
					sweep = prof
				} else if prof != sweep {
					t.Fatalf("partial %v, %s: Profile %s, the sweep's %s", partial, arm.name, prof, sweep)
				}
			}
		}
	})
}
