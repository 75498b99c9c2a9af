package dyncomp

import (
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/scan"
)

// TestLedgerEquivalence checks the ledger engine against compactLegacy
// at several worker counts: every extension candidate scores the same,
// so the built test set, the extension count and the candidate count
// are identical, while strictly fewer fault slots are simulated. Besides
// two full-scan circuits it runs one with every other flip-flop
// scanned, where the unscanned flip-flops start X, and so do the words
// the candidates of a step start from.
func TestLedgerEquivalence(t *testing.T) {
	type input struct {
		name string
		s    *fsim.Simulator
		C    []atpg.CombTest
	}
	var inputs []input
	for _, seed := range []int64{31, 36} {
		s, C, _ := setup(t, seed)
		inputs = append(inputs, input{fmt.Sprintf("seed=%d", seed), s, C})
	}
	c, faults := inputs[1].s.Circuit(), inputs[1].s.Faults()
	var half []int
	for i := 0; i < c.NumFFs(); i += 2 {
		half = append(half, i)
	}
	chain, err := scan.NewChain(c.NumFFs(), half)
	if err != nil {
		t.Fatal(err)
	}
	res, err := atpg.Generate(c, faults, atpg.Options{Seed: 36, Chain: chain})
	if err != nil {
		t.Fatalf("atpg: %v", err)
	}
	inputs = append(inputs, input{"seed=36 half-scan", fsim.NewChain(c, faults, chain), res.Tests})

	for _, in := range inputs {
		s, C := in.s, in.C
		ref, refSt := compactLegacy(s, C, Options{}.withDefaults(s.Nsv()))

		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s workers=%d", in.name, workers)
			s.SetWorkers(workers)
			out, st := Compact(s, C, Options{})
			if out.NumTests() != ref.NumTests() {
				t.Fatalf("%s: %d tests, want %d", name, out.NumTests(), ref.NumTests())
			}
			for i := range out.Tests {
				if !out.Tests[i].SI.Equal(ref.Tests[i].SI) ||
					len(out.Tests[i].Seq) != len(ref.Tests[i].Seq) {
					t.Fatalf("%s: test %d differs from the reference", name, i)
				}
				for u := range out.Tests[i].Seq {
					if !out.Tests[i].Seq[u].Equal(ref.Tests[i].Seq[u]) {
						t.Fatalf("%s: test %d vector %d differs", name, i, u)
					}
				}
			}
			if st.Tests != refSt.Tests || st.Extensions != refSt.Extensions ||
				st.Candidates != refSt.Candidates {
				t.Fatalf("%s: stats differ: %+v vs %+v", name, st, refSt)
			}
			if st.Candidates > 0 && st.FaultsSimulated >= refSt.FaultsSimulated {
				t.Fatalf("%s: ledger simulated %d fault slots, reference %d — no saving",
					name, st.FaultsSimulated, refSt.FaultsSimulated)
			}
		}
		s.SetWorkers(1)
	}
}

// compactLegacy is the pre-ledger engine, kept as the test-only
// reference: one cold re-grade over the full remaining set per
// candidate. Its candidate scores are provably identical to the
// engine's (the carried PO detections are a subset of what the cold
// grade reports, and the remainder is exactly the engine's candidate
// target set). opt must have its defaults applied.
func compactLegacy(s *fsim.Simulator, C []atpg.CombTest, opt Options) (*scan.Set, Stats) {
	var st Stats
	remaining := coverageGoal(s, C)

	out := scan.NewSet()
	progress := true
	for remaining.Count() > 0 && progress {
		progress = false
		for ci := 0; ci < len(C) && remaining.Count() > 0; ci++ {
			cur := s.DetectTest(C[ci].State, logic.Sequence{C[ci].PI}, remaining)
			if cur.Count() == 0 {
				continue
			}
			test := C[ci].ScanTest()

			// Extend while some candidate vector increases the number of
			// remaining faults the test detects, within the functional
			// budget.
			for test.Len() < opt.MaxExtension {
				bestGot := cur
				var bestVec logic.Vector
				tried := 0
				for cj := ci + 1; cj < len(C) && tried < opt.CandidateLimit; cj++ {
					candSeq := append(test.Seq.Clone(), C[cj].PI)
					got := s.DetectTest(test.SI, candSeq, remaining)
					tried++
					st.Candidates++
					st.FaultsSimulated += remaining.Count()
					if got.Count() > bestGot.Count() {
						bestGot, bestVec = got, C[cj].PI
					}
				}
				if bestVec == nil {
					break
				}
				test.Seq = append(test.Seq, bestVec.Clone())
				cur = bestGot
				st.Extensions++
			}

			remaining.SubtractWith(cur)
			out.Tests = append(out.Tests, test)
			st.Tests++
			progress = true
		}
	}
	return out, st
}
