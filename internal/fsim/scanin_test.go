package fsim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/samples"
	"repro/internal/scan"
	"repro/internal/seqgen"
)

// everyOther returns the chain that scans flip-flops 0, 2, 4, … of a
// circuit with nff flip-flops.
func everyOther(t testing.TB, nff int) *scan.Chain {
	t.Helper()
	var ffs []int
	for i := 0; i < nff; i += 2 {
		ffs = append(ffs, i)
	}
	ch, err := scan.NewChain(nff, ffs)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// xStates returns three scan-in states that carry X, built from the
// first and last of states (each nsv long): all X, the first with every
// third position X, and the last with its second half X.
func xStates(states []logic.Vector, nsv int) []logic.Vector {
	third := slices.Clone(states[0])
	for i := 0; i < len(third); i += 3 {
		third[i] = logic.X
	}
	half := slices.Clone(states[len(states)-1])
	for i := len(half) / 2; i < len(half); i++ {
		half[i] = logic.X
	}
	return []logic.Vector{logic.NewVector(nsv, logic.X), third, half}
}

// namedSeq is a sequence with a name for test messages.
type namedSeq struct {
	name string
	seq  logic.Sequence
}

// scanInSequences returns the sequences the scan-in scores are checked
// over on c: random ones of length 1, 2, 3 and 7 with some X inputs,
// the directed T_0 seqgen generates (capped at 60 vectors, as the
// service workload caps it) and a random T_0 of 200 vectors.
func scanInSequences(c *circuit.Circuit, faults []fault.Fault) []namedSeq {
	r := rand.New(rand.NewSource(int64(len(faults))))
	var seqs []namedSeq
	for _, n := range []int{1, 2, 3, 7} {
		seq := make(logic.Sequence, n)
		for u := range seq {
			seq[u] = make(logic.Vector, c.NumPIs())
			for i := range seq[u] {
				seq[u][i] = logic.Value(r.Intn(2))
				if r.Intn(10) == 0 {
					seq[u][i] = logic.X
				}
			}
		}
		seqs = append(seqs, namedSeq{fmt.Sprintf("random%d", n), seq})
	}
	return append(seqs,
		namedSeq{"directed", seqgen.Generate(c, faults, seqgen.Options{Seed: 1, MaxLen: 60}).Seq},
		namedSeq{"randomT0", seqgen.Random(c, 200, 2)})
}

// TestScanInScores: for every state, ScanInScores returns exactly the
// count DetectTest returns. The states are C's (ATPG under the chain)
// plus three that carry X; the sequences those of scanInSequences; the
// targets the whole fault list and every seventh fault (one pass: one
// word on b01, b06 and the samples, the wide width on s298 and s382).
// Each case runs at full scan and with every other flip-flop scanned,
// at 1 worker with the states in order and at 2 workers reversed, so
// both a definite state and an X-bearing one serve as the reference.
// The circuits are s298, s382, b01 and b06; samples.Toggle, whose good
// machines never re-join, since their one flip-flop keeps its parity;
// and samples.Comb4, which has no flip-flops. On the roster circuits
// the random T_0 must also move fewer pass-vectors than the per-state
// loop: the runs re-join.
func TestScanInScores(t *testing.T) {
	circuits := []*circuit.Circuit{samples.Toggle(), samples.Comb4()}
	for _, name := range []string{"s298", "s382", "b01", "b06"} {
		c, ok := gen.RosterCircuit(name)
		if !ok {
			t.Fatalf("unknown roster circuit %q", name)
		}
		circuits = append(circuits, c)
	}
	cases, mismatches := 0, 0
	for _, c := range circuits {
		faults := fault.Collapse(c)
		seqs := scanInSequences(c, faults)
		sample := fault.NewSet(len(faults))
		for f := 0; f < len(faults); f += 7 {
			sample.Add(f)
		}
		for _, partial := range []bool{false, true} {
			var ch *scan.Chain
			if partial {
				ch = everyOther(t, c.NumFFs())
			}
			comb, err := atpg.Generate(c, faults, atpg.Options{Seed: 1, Chain: ch})
			if err != nil {
				t.Fatalf("%s: atpg: %v", c.Name, err)
			}
			var states []logic.Vector
			for _, ct := range comb.Tests {
				states = append(states, ct.State)
			}
			states = append(states, xStates(states, len(states[0]))...)
			serial := fsim.NewChain(c, faults, ch)
			for _, ns := range seqs {
				seq := ns.seq
				// Detection is exact per fault, so the sample's counts
				// come from the whole list's detected sets.
				before := serial.Stats()
				dets := make([]*fault.Set, len(states))
				for i, st := range states {
					dets[i] = serial.DetectTest(st, seq, nil)
				}
				loop := serial.Stats().Sub(before)
				for ti, targets := range []*fault.Set{nil, sample} {
					name := fmt.Sprintf("%s/partial=%v/%s/targets=%d", c.Name, partial, ns.name, ti)
					want := make([]int, len(states))
					for i, det := range dets {
						want[i] = restrict(det, targets).Count()
					}
					for _, workers := range []int{1, 2} {
						order := slices.Clone(states)
						wantOrder := slices.Clone(want)
						if workers == 2 {
							slices.Reverse(order)
							slices.Reverse(wantOrder)
						}
						s := fsim.NewChain(c, faults, ch).SetWorkers(workers)
						got := s.ScanInScores(seq, order, targets)
						cases += len(states)
						bad := 0
						for i := range got {
							if got[i] != wantOrder[i] {
								bad++
							}
						}
						if bad > 0 {
							mismatches += bad
							t.Errorf("%s, workers %d: %d of %d scores differ: got %v, DetectTest %v", name, workers, bad, len(got), got, wantOrder)
						}
						if c.NumFFs() > 1 && ns.name == "randomT0" && targets == nil && workers == 1 {
							if st := s.Stats(); st.PassVectors >= loop.PassVectors {
								t.Errorf("%s: %d pass-vectors, the per-state loop %d", name, st.PassVectors, loop.PassVectors)
							}
						}
					}
				}
			}
		}
	}
	if mismatches > 0 {
		t.Errorf("%d of %d scores differ from DetectTest", mismatches, cases)
	}
	t.Logf("%d scores checked", cases)
}

// FuzzScanInScores scores four states on decoded fuzz circuits
// (oracle.DecodeFuzz): the decoded SI, its complement, all X, and the
// SI with every third position X. Each score must equal the count of
// the oracle's DetectTest, at full scan and with every other flip-flop
// scanned.
func FuzzScanInScores(f *testing.F) {
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
			comp := make(logic.Vector, len(si))
			third := slices.Clone(si)
			for i, v := range si {
				comp[i] = v.Not()
				if i%3 == 0 {
					third[i] = logic.X
				}
			}
			states := []logic.Vector{si, comp, logic.NewVector(len(si), logic.X), third}
			got := fsim.NewChain(c, faults, ch).ScanInScores(tst.Seq, states, nil)
			orc := oracle.NewChain(c, faults, ch)
			for i, st := range states {
				if want := orc.DetectTest(st, tst.Seq, nil).Count(); got[i] != want {
					t.Fatalf("partial %v, state %d (%v): score %d, oracle %d", partial, i, st, got[i], want)
				}
			}
		}
	})
}
