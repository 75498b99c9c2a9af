package fsim

import (
	"repro/internal/fault"
	"repro/internal/logic"
)

// Profile records, for every target fault of one scan test (SI, T), when
// the fault becomes detectable:
//
//   - the run's Record: the earliest time unit at which a primary output
//     detects f (FirstPO), or -1;
//   - stateDiff[f]: a bitset over time units u before that first PO
//     detection where a scan-out performed after the functional clock of
//     time unit u would detect f.
//
// This is the data structure behind Phase 1 Step 3 of the paper: the
// prefix test τ_SO,i = (SI, T[0..i]) detects f iff FirstPO(f) <= i or
// bit i of stateDiff[f] is set. Once a PO detects f, every longer prefix
// detects it, so no later scan-out can change a verdict and the run
// drops f as Detect and Record do. One parallel-fault pass per up to 255
// faults replaces the O(L) separate prefix simulations of a naive
// implementation.
type Profile struct {
	rec       *Record
	stateDiff [][]uint64
}

// Profile simulates the scan test (init, seq) over the target faults and
// returns the per-time detection profile. A nil target set profiles the
// whole fault list. The run is a Record run without the final scan-out
// compare, so it keeps the per-pass early exit, survivor repacking and
// event-frame drops; each pass also ORs the scan-out diff of its
// undetected slots into stateDiff after every clock. A fault belongs to
// one pass per generation, and a repacked survivor is simulated again
// from the first vector and sets the same bits, so the data needs no
// extra synchronization and does not depend on packing.
func (s *Simulator) Profile(init logic.Vector, seq logic.Sequence, targets *fault.Set) *Profile {
	p := &Profile{
		rec:       newRecord(len(s.faults), len(seq)),
		stateDiff: make([][]uint64, len(s.faults)),
	}
	s.run(seq, Options{Init: init, Targets: targets}, p.rec.det, &runSpec{rec: p.rec, profile: p})
	return p
}

// Record returns the run's detection record: its FirstPO is the earliest
// PO detection time of each fault, and it holds no scan-out verdicts.
func (p *Profile) Record() *Record { return p.rec }

// ScanOutDetects reports whether scanning out after time unit u detects
// f. It is false at and after f's first PO detection.
func (p *Profile) ScanOutDetects(f, u int) bool {
	w := p.stateDiff[f]
	return w != nil && w[u>>6]&(1<<(uint(u)&63)) != 0
}

// DetectedByPrefix reports whether the prefix test (SI, T[0..u]) with
// scan-out at time u detects fault f.
func (p *Profile) DetectedByPrefix(f, u int) bool {
	if d := p.rec.FirstPO(f); d >= 0 && d <= u {
		return true
	}
	return p.ScanOutDetects(f, u)
}

// DetectedByPrefixSet returns the set of faults detected by the prefix
// ending at time u.
func (p *Profile) DetectedByPrefixSet(u int) *fault.Set {
	out := fault.NewSet(len(p.stateDiff))
	for f := range p.stateDiff {
		if p.DetectedByPrefix(f, u) {
			out.Add(f)
		}
	}
	return out
}

// EarliestPrefixCovering returns the smallest time unit u such that the
// prefix test (SI, T[0..u]) detects every fault in must, or -1 if no
// prefix (including the full sequence) covers must. This implements the
// i_0 selection rule of Phase 1 Step 3. Scan-out detection is not
// monotone in u (a state difference can vanish later), so the condition
// is tested per u. A fault outside the profiled targets has no PO time
// and no bits, so no prefix covers it.
func (p *Profile) EarliestPrefixCovering(must *fault.Set) int {
	for u := 0; u < p.rec.seqLen; u++ {
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
		p.stateDiff[f] = make([]uint64, (p.rec.seqLen+63)/64)
	}
	p.stateDiff[f][u>>6] |= 1 << (uint(u) & 63)
}
