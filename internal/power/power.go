// Package power estimates the test power of scan test sets — the other
// cost axis of test compaction. Two standard metrics:
//
//   - Shift power: the weighted transition metric (WTM) of the scan-in
//     vectors and scan-out responses. A transition between adjacent bits
//     of a scan vector toggles every flip-flop it shifts through, so a
//     transition at shift position i of an L-bit chain costs (L-1-i)
//     toggles on the way in (and i on the way out for responses).
//   - Capture power: switching activity in the combinational logic and
//     flip-flops during the at-speed cycles, counted by the event-driven
//     simulator (every signal value change is one toggle).
//
// Compacting a test set trades these against each other: fewer scan
// operations cut shift power; longer functional runs add capture power.
package power

import (
	"repro/internal/circuit"
	"repro/internal/esim"
	"repro/internal/logic"
	"repro/internal/scan"
)

// Report summarizes the power of one test set.
type Report struct {
	// ShiftInWTM is the weighted transition metric summed over the
	// scan-in vectors.
	ShiftInWTM int
	// ShiftOutWTM is the weighted transition metric summed over the
	// scan-out responses.
	ShiftOutWTM int
	// CaptureToggles is the total switching activity during functional
	// cycles (combinational nodes + flip-flop updates).
	CaptureToggles int
	// PeakCaptureToggles is the largest single-cycle switching activity.
	PeakCaptureToggles int
	// Cycles is the test application time, for power-per-cycle ratios.
	Cycles int
}

// Total returns the sum of all toggle contributions.
func (r Report) Total() int { return r.ShiftInWTM + r.ShiftOutWTM + r.CaptureToggles }

// WTM computes the weighted transition metric of one scan vector being
// shifted in: a transition between bits k and k+1 enters the chain and
// toggles (L-1-k) cells as it travels to its final position (Sankaralingam
// et al.'s classic estimate). X bits are treated as non-transitions
// (the tester fills them to minimize power).
func WTM(v logic.Vector) int {
	total := 0
	l := len(v)
	for k := 0; k+1 < l; k++ {
		a, b := v[k], v[k+1]
		if a.IsBinary() && b.IsBinary() && a != b {
			total += l - 1 - k
		}
	}
	return total
}

// wtmOut weights transitions for a vector shifting out: the transition
// between bits k and k+1 travels k+1 positions to the scan-out port.
func wtmOut(v logic.Vector) int {
	total := 0
	for k := 0; k+1 < len(v); k++ {
		a, b := v[k], v[k+1]
		if a.IsBinary() && b.IsBinary() && a != b {
			total += k + 1
		}
	}
	return total
}

// Analyze computes the power report of ts on c under the given chain
// (nil = full scan).
func Analyze(c *circuit.Circuit, ch *scan.Chain, ts *scan.Set) Report {
	ch = scan.OrFull(ch, c.NumFFs())
	var rep Report
	rep.Cycles = ts.Cycles(ch.Nsv())

	scanOut := make(logic.Vector, ch.Nsv())
	for _, t := range ts.Tests {
		rep.ShiftInWTM += WTM(t.SI)

		// Capture activity via the event-driven simulator.
		e := esim.New(c)
		e.SetStateVector(ch.State(t.SI))
		e.Settle()
		e.ResetStats() // scan-in loading is shift power, not capture power
		for _, v := range t.Seq {
			before := e.Toggles()
			e.Step(v)
			cyc := e.Toggles() - before
			rep.CaptureToggles += cyc
			if cyc > rep.PeakCaptureToggles {
				rep.PeakCaptureToggles = cyc
			}
		}
		// The response shifted out is the state after the last cycle.
		for k, ff := range ch.FFs {
			scanOut[k] = e.Val(c.DFFs[ff])
		}
		rep.ShiftOutWTM += wtmOut(scanOut)
	}
	return rep
}
