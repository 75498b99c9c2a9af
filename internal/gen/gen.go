// Package gen generates synthetic sequential benchmark circuits.
//
// The ISCAS-89 and ITC-99 netlists evaluated in the paper are
// distributed artifacts, not algorithms, so this repository substitutes
// deterministic, seeded synthetic circuits with the same flip-flop
// counts (scaled for the two largest designs) and comparable gate
// counts. The generator produces circuits in the same structural class —
// clocked Huffman model, modest fanin, reconvergent fanout, feedback
// through flip-flops — and guarantees that every gate is observable
// (through a PO, a flip-flop, or a parity observer), so the fault
// universe does not fill up with trivially undetectable faults.
//
// Real .bench netlists drop in unchanged through package bench when the
// genuine benchmarks are available.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
)

// Params configures one synthetic circuit.
type Params struct {
	Name  string
	Seed  int64
	PIs   int // primary inputs (>= 1)
	POs   int // primary outputs (>= 1)
	FFs   int // flip-flops (>= 0)
	Gates int // combinational gates before observer logic (>= POs)

	// MaxFanin bounds gate fanin; 0 means the default of 3.
	MaxFanin int
	// XorWeight is the relative weight of XOR/XNOR gates; 0 means the
	// default (mildly XOR-poor, since XOR blocks X-initialization).
	XorWeight float64
}

func (p Params) withDefaults() Params {
	if p.MaxFanin == 0 {
		p.MaxFanin = 3
	}
	if p.XorWeight == 0 {
		p.XorWeight = 0.08
	}
	return p
}

func (p Params) validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("gen: missing circuit name")
	case p.PIs < 1:
		return fmt.Errorf("gen %s: need at least one PI", p.Name)
	case p.POs < 1:
		return fmt.Errorf("gen %s: need at least one PO", p.Name)
	case p.FFs < 0:
		return fmt.Errorf("gen %s: negative FF count", p.Name)
	case p.Gates < p.POs:
		return fmt.Errorf("gen %s: need at least as many gates (%d) as POs (%d)", p.Name, p.Gates, p.POs)
	case p.MaxFanin < 2:
		return fmt.Errorf("gen %s: MaxFanin must be >= 2", p.Name)
	}
	return nil
}

// signal tracks one generated signal during construction.
type signal struct {
	name      string
	dependsPI bool // a PI is in the signal's input cone
	consumed  bool // some gate/FF/PO reads this signal
	isGate    bool
}

// Generate builds the synthetic circuit described by p. The result is
// deterministic in p (including Seed).
func Generate(p Params) (*circuit.Circuit, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(p.Seed))
	b := circuit.NewBuilder(p.Name)

	sigs := make([]signal, 0, p.PIs+p.FFs+p.Gates)
	for i := 0; i < p.PIs; i++ {
		n := fmt.Sprintf("pi%d", i)
		b.Input(n)
		sigs = append(sigs, signal{name: n, dependsPI: true})
	}
	ffBase := len(sigs)
	for i := 0; i < p.FFs; i++ {
		n := fmt.Sprintf("ff%d", i)
		// D inputs are wired after gate generation.
		sigs = append(sigs, signal{name: n})
	}

	// Gate generation. Fanins prefer recent gates (builds depth) with a
	// steady draw from PIs and FFs (keeps cones controllable and state-
	// dependent).
	gateBase := len(sigs)
	for i := 0; i < p.Gates; i++ {
		kind := pickKind(r, p.XorWeight)
		nin := 1
		if kind != circuit.Not && kind != circuit.Buf {
			nin = 2 + r.Intn(p.MaxFanin-1)
		}
		ins := pickFanins(r, sigs, gateBase, nin)
		n := fmt.Sprintf("g%d", i)
		names := make([]string, len(ins))
		dep := false
		for j, s := range ins {
			names[j] = sigs[s].name
			sigs[s].consumed = true
			dep = dep || sigs[s].dependsPI
		}
		b.Gate(n, kind, names...)
		sigs = append(sigs, signal{name: n, dependsPI: dep, isGate: true})
	}

	// Primary outputs. Real benchmark circuits register or directly
	// expose much of their state (status outputs), which is what makes
	// them sequentially testable: a fault effect latched into a
	// flip-flop shows up at an output a cycle later. Roughly half the
	// POs are therefore "status" outputs — XOR parities over disjoint
	// groups of flip-flops covering every flip-flop — and the rest
	// observe the combinational logic (dangling gates first, so deep
	// cones get observed).
	nStatus := 0
	if p.FFs > 0 {
		nStatus = (p.POs + 1) / 2
		if nStatus > p.FFs {
			nStatus = p.FFs
		}
	}
	nLogic := p.POs - nStatus
	for g := 0; g < nStatus; g++ {
		cur := ""
		for i := g; i < p.FFs; i += nStatus {
			ff := sigs[ffBase+i].name
			if cur == "" {
				cur = ff
				continue
			}
			n := fmt.Sprintf("st%d_%d", g, i)
			b.Gate(n, circuit.Xor, cur, ff)
			cur = n
		}
		out := fmt.Sprintf("status%d", g)
		b.Gate(out, circuit.Buf, cur)
		b.Output(out)
	}
	poSet := make(map[int]bool)
	var pos []int
	for i := len(sigs) - 1; i >= gateBase && len(pos) < nLogic; i-- {
		if !sigs[i].consumed {
			pos = append(pos, i)
			poSet[i] = true
		}
	}
	for len(pos) < nLogic {
		i := gateBase + r.Intn(p.Gates)
		if !poSet[i] {
			pos = append(pos, i)
			poSet[i] = true
		}
	}
	for _, i := range pos {
		b.Output(sigs[i].name)
		sigs[i].consumed = true
	}

	// Flip-flop D inputs. Each flip-flop gets a synchronous-reset-style
	// initialization cone: D = (reset-cone op data-cone), where the reset
	// cone depends only on PIs. A PI assignment can therefore force the
	// D value regardless of the (unknown) state, so the circuit is
	// initializable from the all-X power-up state the way the real
	// ISCAS-89/ITC-99 designs are — without this, three-valued
	// simulation never resolves X and a no-scan test sequence detects
	// almost nothing.
	for i := 0; i < p.FFs; i++ {
		d := pickDInput(r, sigs, gateBase)
		sigs[d].consumed = true
		rst := fmt.Sprintf("ffrst%d", i)
		pi0 := sigs[r.Intn(p.PIs)].name
		pi1 := sigs[r.Intn(p.PIs)].name
		dn := fmt.Sprintf("ffd%d", i)
		if r.Intn(2) == 0 {
			// AND with a PI-only cone: both PIs low forces D=0. The OR
			// keeps the forcing rare (1/4 per random vector) so the
			// reachable state space stays rich while initialization from
			// all-X still completes within a few vectors.
			b.Gate(rst, circuit.Or, pi0, pi1)
			b.Gate(dn, circuit.And, rst, sigs[d].name)
		} else {
			// OR with a PI-only cone: both PIs high forces D=1.
			b.Gate(rst, circuit.And, pi0, pi1)
			b.Gate(dn, circuit.Or, rst, sigs[d].name)
		}
		b.DFF(sigs[ffBase+i].name, dn)
	}

	// Observer tree over any still-dangling gates so every fault site is
	// potentially observable: XOR-reduce them into one extra PO.
	var dangling []int
	for i := gateBase; i < len(sigs); i++ {
		if !sigs[i].consumed {
			dangling = append(dangling, i)
		}
	}
	if len(dangling) > 0 {
		cur := sigs[dangling[0]].name
		for k, obs := 1, 0; k < len(dangling); k, obs = k+1, obs+1 {
			n := fmt.Sprintf("obs%d", obs)
			b.Gate(n, circuit.Xor, cur, sigs[dangling[k]].name)
			cur = n
		}
		b.Output(cur)
	}

	return b.Build()
}

// MustGenerate is Generate that panics on error, for static rosters.
func MustGenerate(p Params) *circuit.Circuit {
	c, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return c
}

func pickKind(r *rand.Rand, xorWeight float64) circuit.Kind {
	type wk struct {
		k circuit.Kind
		w float64
	}
	table := []wk{
		{circuit.And, 0.22}, {circuit.Nand, 0.20},
		{circuit.Or, 0.20}, {circuit.Nor, 0.15},
		{circuit.Not, 0.12}, {circuit.Buf, 0.03},
		{circuit.Xor, xorWeight / 2}, {circuit.Xnor, xorWeight / 2},
	}
	total := 0.0
	for _, e := range table {
		total += e.w
	}
	x := r.Float64() * total
	for _, e := range table {
		if x < e.w {
			return e.k
		}
		x -= e.w
	}
	return circuit.And
}

// pickFanins selects nin distinct signal indices. 60% of draws come from
// a recent window of gates (depth), the rest uniformly from everything
// generated so far (reconvergence, PI/FF participation).
func pickFanins(r *rand.Rand, sigs []signal, gateBase, nin int) []int {
	n := len(sigs)
	if nin > n {
		nin = n
	}
	const window = 24
	picked := make([]int, 0, nin)
	has := make(map[int]bool, nin)
	for len(picked) < nin {
		var cand int
		if n > gateBase && r.Float64() < 0.6 {
			lo := n - window
			if lo < gateBase {
				lo = gateBase
			}
			cand = lo + r.Intn(n-lo)
		} else {
			cand = r.Intn(n)
		}
		if has[cand] {
			// Fall back to a linear probe so tiny pools terminate.
			for has[cand] {
				cand = (cand + 1) % n
			}
		}
		has[cand] = true
		picked = append(picked, cand)
	}
	return picked
}

func pickDInput(r *rand.Rand, sigs []signal, gateBase int) int {
	n := len(sigs)
	// Dangling and PI-dependent.
	var best []int
	for i := gateBase; i < n; i++ {
		if !sigs[i].consumed && sigs[i].dependsPI {
			best = append(best, i)
		}
	}
	if len(best) > 0 {
		return best[r.Intn(len(best))]
	}
	// Any PI-dependent gate.
	var dep []int
	for i := gateBase; i < n; i++ {
		if sigs[i].dependsPI {
			dep = append(dep, i)
		}
	}
	if len(dep) > 0 {
		return dep[r.Intn(len(dep))]
	}
	return gateBase + r.Intn(n-gateBase)
}
