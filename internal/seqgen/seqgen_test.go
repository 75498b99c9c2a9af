package seqgen

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/esim"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/samples"
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
// same search restated on the event-driven engine: the sequence and the
// detected set must be identical on s27 and on two roster circuits whose
// runs reach the segment search, at two length caps and three seeds
// each. The reference simulates every faulty machine on its own, so the
// (circuit, cap) pairs run in parallel.
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
			t.Run(fmt.Sprintf("%s/len%d", fx.c.Name, maxLen), func(t *testing.T) {
				t.Parallel()
				segments := 0
				for off := int64(0); off < 3; off++ {
					seed := fx.seed + off
					want, n := referenceGenerate(fx.c, faults, seed, maxLen)
					segments += n
					got := Generate(fx.c, faults, Options{Seed: seed, MaxLen: maxLen})
					if len(got.Seq) != len(want.Seq) {
						t.Fatalf("seed %d: length %d, reference %d", seed, len(got.Seq), len(want.Seq))
					}
					for u := range want.Seq {
						if !got.Seq[u].Equal(want.Seq[u]) {
							t.Fatalf("seed %d: vector %d is %s, reference %s", seed, u, got.Seq[u], want.Seq[u])
						}
					}
					if !got.Detected.Equal(want.Detected) {
						t.Fatalf("seed %d: detected %d, reference %d", seed, got.Detected.Count(), want.Detected.Count())
					}
				}
				if fx.c.Name != "s27" && segments == 0 {
					t.Fatal("no seed reached the segment search")
				}
			})
		}
	}
}

// referenceGenerate is the generator restated on the event-driven
// engine: one esim engine per faulty machine and one for the good
// machine, every candidate applied to every live machine. It counts the
// good machine's state activity once, where Generate sums it over the
// live groups; the group count is the same for every candidate in a
// step, so the choice is the same. It also returns how many segment
// searches ran.
func referenceGenerate(c *circuit.Circuit, faults []fault.Fault, seed int64, maxLen int) (*Result, int) {
	r := rand.New(rand.NewSource(seed))
	good := esim.New(c)
	bad := make([]*esim.Engine, len(faults))
	for fi, f := range faults {
		bad[fi] = esim.New(c)
		bad[fi].InjectFault(f.Node, f.Pin, f.Stuck)
	}
	detected := fault.NewSet(len(faults))
	differs := func(g, b logic.Value) bool { return g.IsBinary() && b.IsBinary() && g != b }
	// settle applies v to the good machine and to the faulty machines
	// live selects.
	settle := func(v logic.Vector, live func(fi int) bool) {
		good.SetPIVector(v)
		good.Settle()
		for fi, e := range bad {
			if live(fi) {
				e.SetPIVector(v)
				e.Settle()
			}
		}
	}
	undetected := func(fi int) bool { return !detected.Has(fi) }
	poDetects := func(e *esim.Engine) bool {
		for i := range c.POs {
			if differs(good.PO(i), e.PO(i)) {
				return true
			}
		}
		return false
	}
	// next returns what flip-flop i of e latches at the next clock
	// before an output fault forces it: its D driver, or the stuck value
	// of a D-pin fault.
	next := func(e *esim.Engine, f *fault.Fault, i int) logic.Value {
		ff := c.DFFs[i]
		if f != nil && f.Node == ff && f.Pin == 0 {
			return f.Stuck
		}
		return e.Val(c.Nodes[ff].Fanin[0])
	}
	score := func(cand logic.Vector) (det, latched, act int) {
		settle(cand, undetected)
		for i, ff := range c.DFFs {
			if nv := next(good, nil, i); nv.IsBinary() && nv != good.Val(ff) {
				act++
			}
		}
		for fi, e := range bad {
			if detected.Has(fi) {
				continue
			}
			if poDetects(e) {
				det++
				continue
			}
			for i := range c.DFFs {
				if differs(next(good, nil, i), next(e, &faults[fi], i)) {
					latched++
					break
				}
			}
		}
		return det, latched, act
	}
	commit := func(vec logic.Vector) int {
		settle(vec, undetected)
		newDet := 0
		for fi, e := range bad {
			if !detected.Has(fi) && poDetects(e) {
				detected.Add(fi)
				newDet++
			}
		}
		// A detected machine is never read again.
		good.ClockFF()
		for fi, e := range bad {
			if !detected.Has(fi) {
				e.ClockFF()
			}
		}
		return newDet
	}
	state := func(e *esim.Engine) logic.Vector {
		st := make(logic.Vector, c.NumFFs())
		for i, ff := range c.DFFs {
			st[i] = e.Val(ff)
		}
		return st
	}
	bestSegment := func() logic.Sequence {
		// Every trial starts from the current states, and the search
		// leaves them as it found them.
		goodState := state(good)
		saved := make([]logic.Vector, len(bad))
		for fi, e := range bad {
			if !detected.Has(fi) {
				saved[fi] = state(e)
			}
		}
		restore := func() {
			good.SetStateVector(goodState)
			for fi, st := range saved {
				if st != nil {
					bad[fi].SetStateVector(st)
				}
			}
		}
		var best logic.Sequence
		bestDet, bestLat := -1, -1
		for trial := 0; trial < segmentTrials; trial++ {
			seg := make(logic.Sequence, segmentLen)
			for i := range seg {
				seg[i] = randomVec(r, c.NumPIs())
			}
			restore()
			live := make([]bool, len(bad))
			for fi := range live {
				live[fi] = !detected.Has(fi)
			}
			det, lat := 0, 0
			for _, v := range seg {
				settle(v, func(fi int) bool { return live[fi] })
				for fi, e := range bad {
					if live[fi] && poDetects(e) {
						det++
						live[fi] = false
					}
				}
				good.ClockFF()
				for fi, e := range bad {
					if live[fi] {
						e.ClockFF()
					}
				}
			}
			for fi, e := range bad {
				if !live[fi] {
					continue
				}
				for _, ff := range c.DFFs {
					if differs(good.Val(ff), e.Val(ff)) {
						lat++
						break
					}
				}
			}
			if det > bestDet || (det == bestDet && lat > bestLat) {
				best, bestDet, bestLat = seg, det, lat
			}
		}
		restore()
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
