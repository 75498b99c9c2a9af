// Package core implements the paper's test compaction procedure for
// full-scan circuits (Pomeranz & Reddy, "An Approach to Test Compaction
// for Scan Circuits that Enhances At-Speed Testing", DAC 2001).
//
// Given a sequential test sequence T_0 (generated without scan) and a
// complete combinational test set C, the procedure builds a test set
// dominated by a single test τ_seq = (SI_seq, T_seq) with a long
// at-speed primary-input sequence:
//
//	Phase 1  derive a scan-based test from T_0: pick the scan-in state SI
//	         from the state parts of C maximizing detected faults, then
//	         pick the earliest scan-out time u_SO that keeps every fault
//	         of F_SI detected;
//	Phase 2  omit vectors from the sequence ([8]-style static compaction)
//	         without losing any detected fault;
//	(iterate Phases 1 and 2 with T_0 ← T_C until the selected scan-in
//	state repeats);
//	Phase 3  add length-1 scan tests from C for still-undetected faults,
//	         chosen by the n(f)/last(f) set-cover heuristic;
//	Phase 4  run the static test combining of [4] on the resulting set.
//
// Every run ends by checking the paper's invariants on the sets it
// already holds, with no re-simulation; a violation fails the run.
package core

import (
	"fmt"
	"time"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/scomp"
	"repro/internal/vecomit"
)

// Options tunes the procedure. The zero value reproduces the paper's
// configuration: the i_0 scan-out rule, all four phases, and plain [4]
// combining in Phase 4. No option turns off the invariant check that
// ends every run.
type Options struct {
	// MaxIterations caps the Phase 1+2 iterations (0 = default 8; the
	// natural stop — a repeated scan-in selection — usually hits first).
	MaxIterations int

	// SIScoreSample bounds the number of faults used to *score* scan-in
	// candidates in Step 2 (0 = default 1008, i.e. 4 simulation passes;
	// negative = no sampling). The winner's F_SI comes from the Step 3
	// profile over the whole fault list, so only the ranking is sampled,
	// never the reported coverage.
	SIScoreSample int

	// SICandidateLimit bounds how many states of C are evaluated as
	// scan-in candidates per iteration (0 = all, the paper's setting).
	// When the limit is smaller than |C| the candidates are taken at a
	// uniform stride, so the pool stays representative.
	SICandidateLimit int
}

// OmitMaxLen is the longest sequence the pipeline hands to vector
// omission: Phase 2 here, and the T_0 conditioning in package workload.
// Omission is quadratic on long sequences, and the paper's own results
// show it achieving nothing on exactly those cases (Table 5, s1423 and
// s5378 keep length 1000).
const OmitMaxLen = 800

func (o Options) withDefaults() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 8
	}
	if o.SIScoreSample == 0 {
		o.SIScoreSample = 1008
	}
	return o
}

// PhaseTimings records the wall-clock spent in each phase of one run,
// accumulated across the Phase 1+2 iterations. The split is the one the
// compaction benchmarks report: Phase 1 is scan-in/scan-out selection,
// Phase 2 vector omission plus the τ_C grading, Phase 3 the coverage
// top-up, Phase 4 static combining plus the final coverage accounting.
type PhaseTimings struct {
	Phase1 time.Duration
	Phase2 time.Duration
	Phase3 time.Duration
	Phase4 time.Duration
}

// IterationTrace records one Phase 1+2 iteration for diagnostics.
type IterationTrace struct {
	SIIndex     int // index of the selected scan-in state in C
	Reused      bool
	DetectedT0  int // |F_0| for this iteration's T_0
	DetectedSI  int // |F_SI|
	ScanOutTime int // u_SO
	DetectedSO  int // |F_SO|
	LenIn       int // L(T_0)
	LenOut      int // L(T_C) after omission
	DetectedC   int // |F_C| after omission

	// The fault sets behind the counts above, retained so Run can check
	// the paper's coverage invariants (F_0 ⊆ F_SI ⊆ F_SO ⊆ F_C)
	// set-for-set rather than count-for-count.
	F0  *fault.Set // faults detected by T_0 without scan
	FSI *fault.Set // after scan-in selection (F_0 ∪ scan-test detections)
	FSO *fault.Set // detected by the prefix up to the scan-out time
	FC  *fault.Set // detected by τ_C after vector omission
}

// Result carries every artifact of a full run.
type Result struct {
	// T0Len and T0Detected describe the initial sequence: L(T_0) and F_0
	// (detected without scan), as reported in Tables 1, 2 and 5.
	T0Len      int
	T0Detected *fault.Set

	// TauSeq is the single long test after the Phase 1+2 iterations, and
	// SeqDetected its fault set F_seq (Tables 1 and 2's "scan" columns).
	TauSeq      scan.Test
	SeqDetected *fault.Set

	// Added is the number of length-1 tests Phase 3 appended; Initial is
	// the full test set at the end of Phase 3 with its coverage
	// (Table 2 "added c.tst", Table 3 "init").
	Added           int
	Initial         *scan.Set
	InitialDetected *fault.Set

	// Final is the set after Phase 4 static compaction (Table 3 "comp").
	Final         *scan.Set
	FinalDetected *fault.Set

	// Trace holds one entry per Phase 1+2 iteration.
	Trace []IterationTrace

	// Timings records the wall-clock spent in each phase.
	Timings PhaseTimings
	// OmitStats aggregates the Phase 2 engine's stats across iterations;
	// StaticStats reports the Phase 4 engine's.
	OmitStats   vecomit.Stats
	StaticStats scomp.Stats
}

// Run executes the procedure. C must be non-empty with fully specified
// state parts; T0 must be non-empty.
func Run(s *fsim.Simulator, C []atpg.CombTest, T0 logic.Sequence, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if len(C) == 0 {
		return nil, fmt.Errorf("core: empty combinational test set")
	}
	if len(T0) == 0 {
		return nil, fmt.Errorf("core: empty initial sequence")
	}
	nf := s.NumFaults()
	res := &Result{}

	// --- Phases 1 and 2, iterated ---
	selected := make([]bool, len(C))
	cur := T0.Clone()
	var best scan.Test
	var bestDet *fault.Set
	var bestRec *fsim.Record

	for iter := 0; iter < opt.MaxIterations; iter++ {
		p1start := time.Now()
		// Step 1: F_0 = faults detected by the sequence without scan.
		f0 := s.Detect(cur, fsim.Options{})
		if iter == 0 {
			res.T0Len = len(cur)
			res.T0Detected = f0
		}

		// Step 2: scan-in selection over the state parts of C, simulating
		// only F - F_0. Every candidate runs the same sequence, so one
		// ScanInScores call scores them all: each candidate's run stops
		// where its machines re-join the first candidate's. Unselected
		// states are preferred; a selected state wins only with strictly
		// higher coverage, and ends the iteration.
		rest := allFaults(nf)
		rest.SubtractWith(f0)
		scoreTargets := rest
		if opt.SIScoreSample > 0 && rest.Count() > opt.SIScoreSample {
			scoreTargets = sampleSet(rest, opt.SIScoreSample)
		}
		candStride := 1
		if opt.SICandidateLimit > 0 && len(C) > opt.SICandidateLimit {
			candStride = (len(C) + opt.SICandidateLimit - 1) / opt.SICandidateLimit
		}
		var states []logic.Vector
		for j := 0; j < len(C); j += candStride {
			states = append(states, C[j].State)
		}
		scores := s.ScanInScores(cur, states, scoreTargets)
		bestUnsel, cntUnsel := -1, -1
		bestSel, cntSel := -1, -1
		for k, n := range scores {
			j := k * candStride
			if selected[j] {
				if n > cntSel {
					bestSel, cntSel = j, n
				}
			} else {
				if n > cntUnsel {
					bestUnsel, cntUnsel = j, n
				}
			}
		}
		siIdx, reused := bestUnsel, false
		if bestSel >= 0 && cntSel > cntUnsel {
			siIdx, reused = bestSel, true
		}
		if siIdx < 0 {
			return nil, fmt.Errorf("core: no scan-in candidate available")
		}
		selected[siIdx] = true
		si := C[siIdx].State

		// Step 3: scan-out time selection. The profile pass covers all
		// faults so F_SO can exceed F_SI. Its full-length prefix is the
		// test (SI, T_0) itself, so it also gives F_SI = F_0 ∪ the faults
		// (SI, T_0) detects.
		prof := s.Profile(si, cur, nil)
		fsi := f0.Clone()
		fsi.UnionWith(prof.DetectedByPrefixSet(len(cur) - 1))
		u := prof.EarliestPrefixCovering(fsi)
		if u < 0 {
			// Cannot happen when the full sequence detects F_SI; guard
			// against pathological inputs anyway.
			return nil, fmt.Errorf("core: no scan-out time covers F_SI (iteration %d)", iter)
		}
		fso := prof.DetectedByPrefixSet(u)
		tso := scan.Test{SI: si.Clone(), Seq: cur[:u+1].Clone()}
		res.Timings.Phase1 += time.Since(p1start)

		// Phase 2: vector omission (skipped beyond the length bound,
		// where it is quadratic and historically unproductive).
		p2start := time.Now()
		tc := tso
		if tso.Len() <= OmitMaxLen {
			var ost vecomit.Stats
			tc, ost = vecomit.CompactTest(s, tso, fso, vecomit.Options{})
			res.OmitStats.Add(ost)
		}
		// The full-universe grading of τ_C doubles as its ledger record:
		// recording rides the same early-exit passes, and the record of
		// the winning iteration seeds Phase 4's ledger row for τ_seq.
		fcRec := s.RecordTest(tc.SI, tc.Seq, nil)
		fc := fcRec.Detected()
		res.Timings.Phase2 += time.Since(p2start)

		res.Trace = append(res.Trace, IterationTrace{
			SIIndex:     siIdx,
			Reused:      reused,
			DetectedT0:  f0.Count(),
			DetectedSI:  fsi.Count(),
			ScanOutTime: u,
			DetectedSO:  fso.Count(),
			LenIn:       len(cur),
			LenOut:      tc.Len(),
			DetectedC:   fc.Count(),
			F0:          f0,
			FSI:         fsi,
			FSO:         fso,
			FC:          fc,
		})

		// τ_seq is the best τ_C seen (highest coverage, then shortest),
		// not the last one as a literal reading of §3.3 has it: a final
		// iteration that trades coverage away cannot lower the result.
		if bestDet == nil || fc.Count() > bestDet.Count() ||
			(fc.Count() == bestDet.Count() && tc.Len() < best.Len()) {
			best, bestDet, bestRec = tc.Clone(), fc, fcRec
		}
		cur = tc.Seq.Clone()
		if reused {
			break // the paper's termination rule
		}
	}
	res.TauSeq = best
	res.SeqDetected = bestDet

	// --- Phase 3: coverage top-up with length-1 tests from C ---
	p3start := time.Now()
	undet := allFaults(nf)
	undet.SubtractWith(bestDet)
	added, addedDet := phase3(s, C, undet)
	res.Added = len(added)

	res.Initial = scan.NewSet(best.Clone())
	res.InitialDetected = bestDet.Clone()
	for i, t := range added {
		res.Initial.Tests = append(res.Initial.Tests, t)
		res.InitialDetected.UnionWith(addedDet[i])
	}
	res.Timings.Phase3 = time.Since(p3start)

	// --- Phase 4: static compaction [4] ---
	p4start := time.Now()
	// Seed the combiner's ledger with the τ_seq record the iteration loop
	// already paid for (test 0 of the initial set); the Phase 3 additions
	// are graded by the combiner itself.
	var led *fsim.Ledger
	res.Final, led, res.StaticStats = scomp.CompactWithLedger(s, res.Initial,
		scomp.Options{InitialRecords: []*fsim.Record{bestRec}})
	res.FinalDetected = fault.NewSet(nf)
	// Drop-on-detect: the union only needs each fault detected once, so
	// faults covered by earlier tests are excluded from the remaining
	// simulations. The combiner's ledger rows are exact-positive (every
	// credited detection is real), so crediting them first shrinks — and
	// often empties — each test's remaining target set; the computed
	// union is identical to the cold re-grade.
	rest := allFaults(nf)
	for i, t := range res.Final.Tests {
		credited := rest.Clone()
		credited.IntersectWith(led.Row(i).Detected())
		rest.SubtractWith(credited)
		got := s.DetectTest(t.SI, t.Seq, rest)
		got.UnionWith(credited)
		res.FinalDetected.UnionWith(got)
		rest.SubtractWith(got)
	}
	res.Timings.Phase4 = time.Since(p4start)
	if err := res.check(); err != nil {
		return nil, err
	}
	return res, nil
}

// check verifies the paper's invariants on the sets the run holds. No
// phase loses coverage: F_0 ⊆ F_SI ⊆ F_SO ⊆ F_C in every iteration, and
// F_seq ⊆ F_init ⊆ F_final. Phase 4 turns k tests into k − Combined
// tests with the same Σ L(T_i), so N_cyc falls by exactly N_SV per
// accepted combination.
func (r *Result) check() error {
	for i, it := range r.Trace {
		switch {
		case !it.FSI.ContainsAll(it.F0):
			return fmt.Errorf("core: invariant: iteration %d: F_0 ⊄ F_SI", i)
		case !it.FSO.ContainsAll(it.FSI):
			return fmt.Errorf("core: invariant: iteration %d: F_SI ⊄ F_SO", i)
		case !it.FC.ContainsAll(it.FSO):
			return fmt.Errorf("core: invariant: iteration %d: F_SO ⊄ F_C", i)
		}
	}
	if !r.InitialDetected.ContainsAll(r.SeqDetected) {
		return fmt.Errorf("core: invariant: F_seq ⊄ F_init")
	}
	if !r.FinalDetected.ContainsAll(r.InitialDetected) {
		return fmt.Errorf("core: invariant: F_init ⊄ F_final")
	}
	if k, c := r.Initial.NumTests(), r.StaticStats.Combined; r.Final.NumTests() != k-c {
		return fmt.Errorf("core: invariant: Phase 4 made %d tests of %d with %d combinations", r.Final.NumTests(), k, c)
	}
	if v := r.Initial.TotalVectors(); r.Final.TotalVectors() != v {
		return fmt.Errorf("core: invariant: Phase 4 changed Σ L(T_i) from %d to %d", v, r.Final.TotalVectors())
	}
	return nil
}

// phase3 implements the n(f)/last(f) selection: repeatedly take the
// undetected fault with the fewest detecting tests and add the last test
// that detects it. Faults no τ_j detects are left undetected (they are
// combinationally untestable or abortable faults outside C's coverage).
func phase3(s *fsim.Simulator, C []atpg.CombTest, undet *fault.Set) ([]scan.Test, []*fault.Set) {
	nf := s.NumFaults()
	if undet.Count() == 0 {
		return nil, nil
	}
	// Detection matrix over the undetected faults only.
	det := make([]*fault.Set, len(C))
	n := make([]int, nf)
	last := make([]int, nf)
	for f := 0; f < nf; f++ {
		last[f] = -1
	}
	for j, c := range C {
		det[j] = s.Detect(logic.Sequence{c.PI}, fsim.Options{Init: c.State, ScanOut: true, Targets: undet})
		det[j].ForEach(func(f int) {
			n[f]++
			last[f] = j
		})
	}

	work := undet.Clone()
	var tests []scan.Test
	var testDets []*fault.Set
	for {
		// Find the live fault with minimum n(f) > 0.
		bestF, bestN := -1, 0
		work.ForEach(func(f int) {
			if n[f] == 0 {
				return
			}
			if bestF < 0 || n[f] < bestN {
				bestF, bestN = f, n[f]
			}
		})
		if bestF < 0 {
			break // all remaining faults are uncoverable by C
		}
		j := last[bestF]
		tests = append(tests, C[j].ScanTest())
		covered := det[j].Clone()
		covered.IntersectWith(work)
		testDets = append(testDets, covered)
		work.SubtractWith(det[j])
	}
	return tests, testDets
}

func allFaults(n int) *fault.Set { return fault.NewFullSet(n) }

// sampleSet returns a deterministic subset of roughly limit faults,
// taken at a uniform stride.
func sampleSet(src *fault.Set, limit int) *fault.Set {
	total := src.Count()
	stride := (total + limit - 1) / limit
	if stride < 1 {
		stride = 1
	}
	out := fault.NewSet(src.Len())
	i := 0
	src.ForEach(func(f int) {
		if i%stride == 0 {
			out.Add(f)
		}
		i++
	})
	return out
}
