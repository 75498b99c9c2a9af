package seqgen

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/samples"
	"repro/internal/sim"
)

func TestGenerateDetectsClaimedFaults(t *testing.T) {
	// The incremental tracker must agree with an independent replay of
	// the final sequence through the batch fault simulator.
	c := samples.S27()
	faults := fault.Collapse(c)
	res := Generate(c, faults, Options{Seed: 1, MaxLen: 60})
	if len(res.Seq) == 0 {
		t.Fatal("empty sequence generated")
	}
	replay := fsim.New(c, faults).Detect(res.Seq, fsim.Options{})
	if !replay.Equal(res.Detected) {
		t.Errorf("incremental detected %d faults, replay %d",
			res.Detected.Count(), replay.Count())
	}
}

func TestGenerateBeatsRandomOnCoverage(t *testing.T) {
	// The directed generator must detect more faults than pure random
	// sequences of the same length on average over several seeds (the
	// paper's Table 1 vs Table 5 relationship). Individual seeds may tie.
	c := gen.MustGenerate(gen.Params{Name: "t", Seed: 3, PIs: 5, POs: 4, FFs: 12, Gates: 150})
	faults := fault.Collapse(c)
	s := fsim.New(c, faults)
	dirTotal, randTotal := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		res := Generate(c, faults, Options{Seed: seed, MaxLen: 200})
		if res.Detected.Count() == 0 {
			t.Fatalf("seed %d: directed generator detected nothing", seed)
		}
		randDet := s.Detect(Random(c, len(res.Seq), seed), fsim.Options{})
		dirTotal += res.Detected.Count()
		randTotal += randDet.Count()
	}
	if dirTotal < randTotal {
		t.Errorf("directed total %d < random total %d over 3 seeds", dirTotal, randTotal)
	}
}

func TestGenerateRespectsMaxLen(t *testing.T) {
	// MaxLen 10 binds long before the stall limit.
	c := samples.S27()
	faults := fault.Collapse(c)
	res := Generate(c, faults, Options{Seed: 1, MaxLen: 10})
	if len(res.Seq) != 10 {
		t.Errorf("sequence length %d, want MaxLen 10", len(res.Seq))
	}
}

func TestGenerateStalls(t *testing.T) {
	// Without scan the toggle circuit's good flip-flop never leaves X
	// (q' = q XOR en), so its output is X and no fault is ever detected:
	// generation must stop after exactly stallLimit vectors, well inside
	// the length cap.
	c := samples.Toggle()
	faults := fault.Collapse(c)
	res := Generate(c, faults, Options{Seed: 1, MaxLen: 500})
	if res.Detected.Count() != 0 {
		t.Fatalf("fixture detects %d faults, want none", res.Detected.Count())
	}
	if len(res.Seq) != stallLimit {
		t.Errorf("generator stopped after %d vectors, want %d", len(res.Seq), stallLimit)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	a := Generate(c, faults, Options{Seed: 9, MaxLen: 40})
	b := Generate(c, faults, Options{Seed: 9, MaxLen: 40})
	if len(a.Seq) != len(b.Seq) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Seq), len(b.Seq))
	}
	for i := range a.Seq {
		if !a.Seq[i].Equal(b.Seq[i]) {
			t.Fatalf("vector %d differs", i)
		}
	}
	if !a.Detected.Equal(b.Detected) {
		t.Error("detected sets differ between identical runs")
	}
}

func TestRandomSequence(t *testing.T) {
	c := samples.S27()
	seq := Random(c, 100, 5)
	if len(seq) != 100 {
		t.Fatalf("length = %d", len(seq))
	}
	ones := 0
	for _, v := range seq {
		if len(v) != c.NumPIs() {
			t.Fatalf("vector width %d != %d PIs", len(v), c.NumPIs())
		}
		for _, x := range v {
			if !x.IsBinary() {
				t.Fatal("random sequence contains X")
			}
			if x == logic.One {
				ones++
			}
		}
	}
	total := 100 * c.NumPIs()
	if ones < total/4 || ones > 3*total/4 {
		t.Errorf("ones fraction %d/%d far from uniform", ones, total)
	}
	// Determinism.
	seq2 := Random(c, 100, 5)
	for i := range seq {
		if !seq[i].Equal(seq2[i]) {
			t.Fatal("Random not deterministic")
		}
	}
}

func TestGenerateAllDetectedStops(t *testing.T) {
	// s27 detects every fault within a few dozen vectors: generation
	// must stop at the vector that completes the coverage, far below
	// MaxLen.
	c := samples.S27()
	faults := fault.Collapse(c)
	res := Generate(c, faults, Options{Seed: 4, MaxLen: 1000})
	if res.Detected.Count() != len(faults) {
		t.Fatalf("fixture detects %d of %d faults, want all", res.Detected.Count(), len(faults))
	}
	s := fsim.New(c, faults)
	if n := len(res.Seq); s.Detect(res.Seq[:n-1], fsim.Options{}).Count() == len(faults) {
		t.Errorf("generator kept going after full coverage (%d vectors)", n)
	}
}

func TestGenerateZeroFaults(t *testing.T) {
	// An empty fault list means everything is "detected" immediately:
	// generation must terminate without work.
	c := samples.S27()
	res := Generate(c, nil, Options{Seed: 1, MaxLen: 50})
	if len(res.Seq) != 0 || res.Detected.Count() != 0 {
		t.Errorf("empty fault list: len=%d detected=%d", len(res.Seq), res.Detected.Count())
	}
}

// TestGenerateMatchesReference pins Generate to referenceGenerate, the
// interpreter loop it replaced: the sequence and the detected set must
// be identical on s27 and on two roster circuits whose runs reach the
// segment search, at two length caps and three seeds each.
func TestGenerateMatchesReference(t *testing.T) {
	type fixture struct {
		c    *circuit.Circuit
		seed int64
	}
	fixtures := []fixture{{samples.S27(), 1}}
	for _, name := range []string{"b03", "s400"} {
		e, ok := gen.FindEntry(name)
		if !ok {
			t.Fatalf("roster has no %s", name)
		}
		fixtures = append(fixtures, fixture{gen.MustGenerate(e.Params), e.Params.Seed})
	}
	for _, fx := range fixtures {
		faults := fault.Collapse(fx.c)
		for _, maxLen := range []int{60, 300} {
			segments := 0
			for off := int64(0); off < 3; off++ {
				seed := fx.seed + off
				want, n := referenceGenerate(fx.c, faults, seed, maxLen)
				segments += n
				got := Generate(fx.c, faults, Options{Seed: seed, MaxLen: maxLen})
				if len(got.Seq) != len(want.Seq) {
					t.Fatalf("%s seed %d MaxLen %d: length %d, reference %d",
						fx.c.Name, seed, maxLen, len(got.Seq), len(want.Seq))
				}
				for u := range want.Seq {
					if !got.Seq[u].Equal(want.Seq[u]) {
						t.Fatalf("%s seed %d MaxLen %d: vector %d is %s, reference %s",
							fx.c.Name, seed, maxLen, u, got.Seq[u], want.Seq[u])
					}
				}
				if !got.Detected.Equal(want.Detected) {
					t.Fatalf("%s seed %d MaxLen %d: detected %d, reference %d",
						fx.c.Name, seed, maxLen, got.Detected.Count(), want.Detected.Count())
				}
			}
			if fx.c.Name != "s27" && segments == 0 {
				t.Fatalf("%s MaxLen %d: no seed reached the segment search", fx.c.Name, maxLen)
			}
		}
	}
}

// referenceGenerate is the generator on the interpreter sim.Engine, in
// groups of 63 faults: every candidate re-installs its group's
// injections and state, and the activity tie-break counts the good
// machine's state changes once per live group. It also returns how many
// segment searches ran.
func referenceGenerate(c *circuit.Circuit, faults []fault.Fault, seed int64, maxLen int) (*Result, int) {
	const refGroup = 63
	type refGroupState struct {
		injs    []sim.Injection
		indices []int
		state   []logic.Word
		mask    uint64
	}
	r := rand.New(rand.NewSource(seed))
	eng := sim.New(c)
	nff := c.NumFFs()
	var groups []*refGroupState
	for start := 0; start < len(faults); start += refGroup {
		end := min(start+refGroup, len(faults))
		g := &refGroupState{state: make([]logic.Word, nff)}
		for bi := start; bi < end; bi++ {
			slot := uint(bi - start + 1)
			g.indices = append(g.indices, bi)
			g.injs = append(g.injs, faults[bi].Injection(1<<slot))
			g.mask |= 1 << slot
		}
		groups = append(groups, g)
	}
	poDiff := func(mask uint64) uint64 {
		var diff uint64
		for i := range c.POs {
			w := eng.PO(i)
			diff |= logic.DiffDefinite(w, w.BroadcastSlot(0))
		}
		return diff & mask
	}
	load := func(g *refGroupState, state []logic.Word) {
		eng.Reset()
		eng.SetInjections(g.injs)
		eng.LoadStateWords(state)
	}
	score := func(cand logic.Vector) (det, latched, act int) {
		for _, g := range groups {
			if g.mask == 0 {
				continue
			}
			load(g, g.state)
			eng.SetPIVector(cand)
			eng.EvalComb()
			diff := poDiff(g.mask)
			det += bits.OnesCount64(diff)
			var sdiff uint64
			for i, w := range eng.NextState() {
				sdiff |= logic.DiffDefinite(w, w.BroadcastSlot(0))
				if nv := w.Get(0); nv.IsBinary() && nv != g.state[i].Get(0) {
					act++
				}
			}
			latched += bits.OnesCount64(sdiff & g.mask &^ diff)
		}
		return det, latched, act
	}
	detected := fault.NewSet(len(faults))
	commit := func(vec logic.Vector) int {
		newDet := 0
		for _, g := range groups {
			if g.mask == 0 {
				continue
			}
			load(g, g.state)
			eng.SetPIVector(vec)
			eng.EvalComb()
			diff := poDiff(g.mask)
			for bi, fi := range g.indices {
				if diff&(1<<uint(bi+1)) != 0 {
					detected.Add(fi)
					newDet++
				}
			}
			g.mask &^= diff
			eng.ClockFF()
			eng.StateWords(g.state)
		}
		return newDet
	}
	bestSegment := func() logic.Sequence {
		var best logic.Sequence
		bestDet, bestLat := -1, -1
		state := make([]logic.Word, nff)
		for trial := 0; trial < segmentTrials; trial++ {
			seg := make(logic.Sequence, segmentLen)
			for i := range seg {
				seg[i] = randomVec(r, c.NumPIs())
			}
			det, lat := 0, 0
			for _, g := range groups {
				if g.mask == 0 {
					continue
				}
				copy(state, g.state)
				live := g.mask
				load(g, state)
				for _, v := range seg {
					eng.SetPIVector(v)
					eng.EvalComb()
					diff := poDiff(live)
					det += bits.OnesCount64(diff)
					live &^= diff
					eng.ClockFF()
				}
				var sdiff uint64
				for i := 0; i < nff; i++ {
					w := eng.State(i)
					sdiff |= logic.DiffDefinite(w, w.BroadcastSlot(0))
				}
				lat += bits.OnesCount64(sdiff & live)
			}
			if det > bestDet || (det == bestDet && lat > bestLat) {
				best, bestDet, bestLat = seg, det, lat
			}
		}
		return best
	}

	var seq logic.Sequence
	prev := randomVec(r, c.NumPIs())
	stall, segments := 0, 0
	for len(seq) < maxLen && detected.Count() < len(faults) && stall < stallLimit {
		if stall >= plateauAfter {
			segments++
			for _, v := range bestSegment() {
				if len(seq) >= maxLen || stall >= stallLimit {
					break
				}
				newDet := commit(v)
				seq = append(seq, v)
				prev = v
				if newDet > 0 {
					stall = 0
				} else {
					stall++
				}
			}
			continue
		}
		cands := []logic.Vector{prev.Clone()}
		if c.NumPIs() > 0 {
			m := prev.Clone()
			i := r.Intn(len(m))
			m[i] = m[i].Not()
			cands = append(cands, m)
		}
		for len(cands) < candidates {
			cands = append(cands, randomVec(r, c.NumPIs()))
		}
		bestIdx := -1
		bestDet, bestLat, bestAct := -1, -1, -1
		for ci, cand := range cands {
			det, lat, act := score(cand)
			if det > bestDet ||
				(det == bestDet && lat > bestLat) ||
				(det == bestDet && lat == bestLat && act > bestAct) {
				bestIdx, bestDet, bestLat, bestAct = ci, det, lat, act
			}
		}
		chosen := cands[bestIdx]
		newDet := commit(chosen)
		seq = append(seq, chosen)
		prev = chosen
		if newDet > 0 {
			stall = 0
		} else {
			stall++
		}
	}
	return &Result{Seq: seq, Detected: detected}, segments
}
