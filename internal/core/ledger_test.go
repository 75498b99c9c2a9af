package core

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/scan"
	"repro/internal/scomp"
)

func sameTest(a, b scan.Test) bool {
	if !a.SI.Equal(b.SI) || a.Len() != b.Len() {
		return false
	}
	for u := range a.Seq {
		if !a.Seq[u].Equal(b.Seq[u]) {
			return false
		}
	}
	return true
}

func sameTests(a, b *scan.Set) bool {
	if a.NumTests() != b.NumTests() {
		return false
	}
	for i := range a.Tests {
		if !sameTest(a.Tests[i], b.Tests[i]) {
			return false
		}
	}
	return true
}

// TestLedgerEquivalence checks the ledger shortcuts of a full Run
// against cold recomputation, at several worker counts:
//
//   - Final equals an unseeded scomp.Compact of Initial, so seeding
//     Phase 4 with the τ_seq record changes nothing;
//   - FinalDetected equals the cold DetectTest union over Final, so the
//     ledger-credited final accounting is exact;
//   - SeqDetected equals DetectTest(τ_seq), so the recorded grading of
//     τ_C is exact.
func TestLedgerEquivalence(t *testing.T) {
	for _, seed := range []int64{101, 107} {
		fx := newFixture(t, seed)
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("seed=%d workers=%d", seed, workers)
			fx.s.SetWorkers(workers)
			res, err := Run(fx.s, fx.C, fx.t0.Seq, Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want, _ := scomp.Compact(fx.s, res.Initial, scomp.Options{}); !sameTests(res.Final, want) {
				t.Fatalf("%s: final set differs from an unseeded compaction of the initial set", name)
			}
			cold := fault.NewSet(fx.faults)
			for _, tst := range res.Final.Tests {
				cold.UnionWith(fx.s.DetectTest(tst.SI, tst.Seq, nil))
			}
			if !res.FinalDetected.Equal(cold) {
				t.Fatalf("%s: final detected %d faults, cold re-grade %d",
					name, res.FinalDetected.Count(), cold.Count())
			}
			if seq := fx.s.DetectTest(res.TauSeq.SI, res.TauSeq.Seq, nil); !res.SeqDetected.Equal(seq) {
				t.Fatalf("%s: tau_seq detected %d faults, cold re-grade %d",
					name, res.SeqDetected.Count(), seq.Count())
			}
		}
	}
}
