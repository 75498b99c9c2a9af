package fsim

import (
	"repro/internal/fault"
	"repro/internal/logic"
)

// Profile records, for every target fault of one scan test (SI, T), when
// the fault becomes detectable:
//
//   - poDetect[f]: the earliest time unit at which a primary output
//     detects f, or -1;
//   - stateDiff[f]: a bitset over time units u where a scan-out performed
//     after the functional clock of time unit u would detect f.
//
// This is the data structure behind Phase 1 Step 3 of the paper: the
// prefix test τ_SO,i = (SI, T[0..i]) detects f iff poDetect[f] <= i or
// bit i of stateDiff[f] is set. One parallel-fault pass per up to 255
// faults replaces the O(L) separate prefix simulations of a naive
// implementation.
type Profile struct {
	seqLen    int
	poDetect  []int32
	stateDiff [][]uint64
	simulated *fault.Set
}

// Profile simulates the scan test (init, seq) over the target faults and
// returns the per-time detection profile. A nil target set profiles the
// whole fault list.
func (s *Simulator) Profile(init logic.Vector, seq logic.Sequence, targets *fault.Set) *Profile {
	n := len(s.faults)
	p := &Profile{
		seqLen:    len(seq),
		poDetect:  make([]int32, n),
		stateDiff: make([][]uint64, n),
		simulated: fault.NewSet(n),
	}
	for i := range p.poDetect {
		p.poDetect[i] = -1
	}
	if targets == nil {
		for i := 0; i < n; i++ {
			p.simulated.Add(i)
		}
	} else {
		p.simulated.UnionWith(targets)
	}
	// Profile data is written per fault, and each fault belongs to
	// exactly one pass, so the parallel fan-out of run needs no extra
	// synchronization here. The detected set is scratch in profile mode.
	scratch := fault.NewSet(n)
	s.run(seq, Options{Init: init, Targets: targets}, scratch, &runSpec{profile: p})
	return p
}

// SeqLen returns the length of the profiled sequence.
func (p *Profile) SeqLen() int { return p.seqLen }

// Simulated reports whether fault f was part of the profiled targets.
func (p *Profile) Simulated(f int) bool { return p.simulated.Has(f) }

// PODetectTime returns the earliest PO detection time of f, or -1.
func (p *Profile) PODetectTime(f int) int { return int(p.poDetect[f]) }

// ScanOutDetects reports whether scanning out after time unit u detects f.
func (p *Profile) ScanOutDetects(f, u int) bool {
	w := p.stateDiff[f]
	if w == nil {
		return false
	}
	return w[u>>6]&(1<<(uint(u)&63)) != 0
}

// DetectedByPrefix reports whether the prefix test (SI, T[0..u]) with
// scan-out at time u detects fault f.
func (p *Profile) DetectedByPrefix(f, u int) bool {
	if d := p.poDetect[f]; d >= 0 && int(d) <= u {
		return true
	}
	return p.ScanOutDetects(f, u)
}

// DetectedFull returns the set of faults detected by the full test
// (prefix = whole sequence).
func (p *Profile) DetectedFull() *fault.Set {
	out := fault.NewSet(len(p.poDetect))
	if p.seqLen == 0 {
		return out
	}
	p.simulated.ForEach(func(f int) {
		if p.DetectedByPrefix(f, p.seqLen-1) {
			out.Add(f)
		}
	})
	return out
}

// DetectedByPrefixSet returns the set of simulated faults detected by the
// prefix ending at time u.
func (p *Profile) DetectedByPrefixSet(u int) *fault.Set {
	out := fault.NewSet(len(p.poDetect))
	p.simulated.ForEach(func(f int) {
		if p.DetectedByPrefix(f, u) {
			out.Add(f)
		}
	})
	return out
}

// EarliestPrefixCovering returns the smallest time unit u such that the
// prefix test (SI, T[0..u]) detects every fault in must, or -1 if no
// prefix (including the full sequence) covers must. This implements the
// i_0 selection rule of Phase 1 Step 3.
func (p *Profile) EarliestPrefixCovering(must *fault.Set) int {
	if p.seqLen == 0 {
		return -1
	}
	// For each fault the earliest covering prefix is:
	//   earliest(f) = min(poDetect[f] if >=0, first set bit of stateDiff[f])
	// except that scan-out detection at time u only helps prefixes ending
	// exactly at u... Scan-out detection is NOT monotone in u: a fault
	// whose state difference vanishes later is detected by the prefix
	// ending at u but not by longer prefixes (unless a PO or a later
	// state diff catches it). So the covering condition must be evaluated
	// per u. We scan u upward and test all faults; the first u where all
	// of must is covered wins.
	ok := true
	must.ForEach(func(f int) {
		if !p.simulated.Has(f) {
			ok = false
		}
	})
	if !ok {
		return -1
	}
	for u := 0; u < p.seqLen; u++ {
		covered := true
		must.ForEach(func(f int) {
			if covered && !p.DetectedByPrefix(f, u) {
				covered = false
			}
		})
		if covered {
			return u
		}
	}
	return -1
}

func (p *Profile) setStateDiff(f, u int) {
	if p.stateDiff[f] == nil {
		p.stateDiff[f] = make([]uint64, (p.seqLen+63)/64)
	}
	p.stateDiff[f][u>>6] |= 1 << (uint(u) & 63)
}
