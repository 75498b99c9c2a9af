package atpg

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/samples"
	"repro/internal/scan"
	"repro/internal/sim"
)

// referenceFrontier is dFrontier without the fault cone: it scans every
// gate of EvalOrder and reads each node's good and faulty values as two
// Values.
func referenceFrontier(p *podem) []int {
	val := func(n int, slot uint) logic.Value { return p.eng.Val(n)[0].Get(slot) }
	binary := func(n int) bool { return val(n, 0).IsBinary() && val(n, 1).IsBinary() }
	var out []int
	for _, n := range p.c.EvalOrder() {
		if binary(n) {
			continue
		}
		for _, fi := range p.c.Nodes[n].Fanin {
			if binary(fi) && val(fi, 0) != val(fi, 1) {
				out = append(out, n)
				break
			}
		}
	}
	if p.f.Pin >= 0 && !binary(p.f.Node) && p.excited() {
		out = append(out, p.f.Node)
	}
	return out
}

// firstHalf returns the chain that scans the first half of c's
// flip-flops.
func firstHalf(t testing.TB, c *circuit.Circuit) *scan.Chain {
	t.Helper()
	half := make([]int, c.NumFFs()/2)
	for i := range half {
		half[i] = i
	}
	ch, err := scan.NewChain(c.NumFFs(), half)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// checkFrontier targets every collapsed fault of c under the chain ch
// and, for each assignment of the inputs (PIs, then the chain's
// flip-flops), implies it and requires dFrontier to equal
// referenceFrontier element for element. It returns the number of
// non-empty frontiers compared.
func checkFrontier(t testing.TB, c *circuit.Circuit, ch *scan.Chain, assignments []logic.Vector) int {
	t.Helper()
	p := newSearch(c, sim.NewBatch(sim.Compile(c), 1), maxBacktracks, ch, nil)
	nonEmpty := 0
	for _, f := range fault.Collapse(c) {
		p.target(f)
		for _, a := range assignments {
			copy(p.assign, a)
			p.imply()
			got, want := p.dFrontier(), referenceFrontier(p)
			if !slices.Equal(got, want) {
				t.Fatalf("%s chain %v: %s under %v: frontier %v, reference %v", c.Name, ch.FFs, f.String(c), a, got, want)
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
	}
	return nonEmpty
}

// randomAssignment returns n values drawn uniformly from 0, 1 and X.
func randomAssignment(r *rand.Rand, n int) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		v[i] = logic.Value(r.Intn(3))
	}
	return v
}

// TestDFrontierMatchesReference compares dFrontier with the full-order
// reference on every collapsed fault of the circuits the exhaustive
// PODEM tests check, at full scan and half scanned, under random
// partial assignments.
func TestDFrontierMatchesReference(t *testing.T) {
	circuits := []*circuit.Circuit{samples.Comb4(), samples.S27(), samples.Toggle()}
	for _, p := range []gen.Params{ // TestPodemMatchesExhaustiveGenerated's circuits
		{Name: "px1", Seed: 11, PIs: 4, POs: 3, FFs: 8, Gates: 60},
		{Name: "px2", Seed: 12, PIs: 5, POs: 2, FFs: 6, Gates: 80, XorWeight: 0.3},
		{Name: "px3", Seed: 13, PIs: 3, POs: 4, FFs: 9, Gates: 100, MaxFanin: 4},
	} {
		circuits = append(circuits, gen.MustGenerate(p))
	}
	r := rand.New(rand.NewSource(1))
	for _, c := range circuits {
		for _, ch := range []*scan.Chain{scan.Full(c.NumFFs()), firstHalf(t, c)} {
			assignments := make([]logic.Vector, 32)
			for i := range assignments {
				assignments[i] = randomAssignment(r, c.NumPIs()+ch.Nsv())
			}
			if checkFrontier(t, c, ch, assignments) == 0 {
				t.Errorf("%s chain %v: every frontier compared was empty", c.Name, ch.FFs)
			}
		}
	}
}

// FuzzDFrontier compares dFrontier with the full-order reference on
// fuzz-decoded circuits, at full scan and half scanned. Each vector of
// the decoded test, with the scan-in state's values at the chain's
// flip-flops, is one partial assignment (the decoder draws 0, 1 and X).
func FuzzDFrontier(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, c := range []*circuit.Circuit{samples.S27(), samples.Toggle(), samples.ShiftReg(3), samples.Comb4()} {
		tst := scan.Test{SI: randomAssignment(r, c.NumFFs())}
		for i := 0; i < 4; i++ {
			tst.Seq = append(tst.Seq, randomAssignment(r, c.NumPIs()))
		}
		data, err := oracle.EncodeFuzz(c, tst)
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
		for _, ch := range []*scan.Chain{scan.Full(c.NumFFs()), firstHalf(t, c)} {
			var assignments []logic.Vector
			for _, pi := range tst.Seq {
				a := slices.Clone(pi)
				for _, k := range ch.FFs {
					a = append(a, tst.SI[k])
				}
				assignments = append(assignments, a)
			}
			checkFrontier(t, c, ch, assignments)
		}
	})
}
