// Package oracle is the correctness reference for the fault-simulation
// and compaction pipeline: a scalar, one-fault-at-a-time fault simulator
// built on the independent event-driven engine (package esim), plus
// audits that re-simulate the artifacts the pipeline produces
// (audit.go). The invariants that need no simulation are core's own,
// checked on every run; the oracle does not import what it referees.
//
// The reference simulator deliberately shares nothing with package fsim:
// no 64-slot words, no compiled kernel, no worker pool, no early exits. One
// fresh engine per fault, one comparison per observation point. It is
// orders of magnitude slower than fsim and exists only so that fsim's
// optimizations — and every future one — can be checked against an
// implementation whose correctness is visible by inspection.
//
// Semantics match fsim exactly, including the contract that a test with
// an empty at-speed sequence detects nothing (its injections are never
// exercised by a functional cycle), so detection sets from the two
// simulators are comparable with fault.Set.Equal.
package oracle

import (
	"repro/internal/circuit"
	"repro/internal/esim"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/response"
	"repro/internal/scan"
)

// Sim is the reference fault simulator for one circuit and fault list.
// The fault list order defines the indices used in all result sets, so a
// Sim built from the same list as an fsim.Simulator produces directly
// comparable sets.
type Sim struct {
	c        *circuit.Circuit
	faults   []fault.Fault
	chain    []int // scanned FF positions in scan order; nil = full scan
	observed []int // FF positions compared at scan-out
}

// New returns a full-scan reference simulator.
func New(c *circuit.Circuit, faults []fault.Fault) *Sim {
	s := &Sim{c: c, faults: faults}
	s.observed = make([]int, c.NumFFs())
	for i := range s.observed {
		s.observed[i] = i
	}
	return s
}

// NewChain returns a reference simulator whose scan operations follow ch.
// A nil chain means full scan.
func NewChain(c *circuit.Circuit, faults []fault.Fault, ch *scan.Chain) *Sim {
	s := New(c, faults)
	if ch != nil {
		s.chain = append([]int(nil), ch.FFs...)
		s.observed = s.chain
	}
	return s
}

// Circuit returns the simulated netlist.
func (s *Sim) Circuit() *circuit.Circuit { return s.c }

// Faults returns the fault list (do not modify).
func (s *Sim) Faults() []fault.Fault { return s.faults }

// Nsv returns the number of scanned state variables.
func (s *Sim) Nsv() int {
	if s.chain == nil {
		return s.c.NumFFs()
	}
	return len(s.chain)
}

// Options mirrors fsim.Options: what a Detect run loads and observes.
type Options struct {
	// Init is the scan-in state; nil runs without scan from all-X.
	Init logic.Vector
	// ScanOut adds the final flip-flop state to the observation points.
	ScanOut bool
	// Targets limits simulation to the faults in the set; nil simulates
	// the whole fault list.
	Targets *fault.Set
}

// scanIn loads the scan-in vector into e with fsim's semantics: under
// full scan si is indexed by flip-flop position (nil or short vectors
// fill with X); under partial scan by chain position, with unscanned
// flip-flops left X.
func (s *Sim) scanIn(e *esim.Engine, si logic.Vector) {
	nff := s.c.NumFFs()
	if s.chain == nil {
		if si == nil {
			si = logic.NewVector(nff, logic.X)
		}
		e.SetStateVector(si)
		return
	}
	e.SetStateVector(logic.NewVector(nff, logic.X))
	for k, ff := range s.chain {
		v := logic.X
		if si != nil && k < len(si) {
			v = si[k]
		}
		e.SetState(ff, v)
	}
}

// trace holds one fault-free replay: the PO vector while each sequence
// vector is applied, and the observed flip-flop values after each clock.
type trace struct {
	po  []logic.Vector
	obs []logic.Vector
}

func (s *Sim) goodTrace(si logic.Vector, seq logic.Sequence) *trace {
	e := esim.New(s.c)
	s.scanIn(e, si)
	tr := &trace{
		po:  make([]logic.Vector, len(seq)),
		obs: make([]logic.Vector, len(seq)),
	}
	for u, vec := range seq {
		e.SetPIVector(vec)
		e.Settle()
		tr.po[u] = e.POVector()
		e.ClockFF()
		obs := make(logic.Vector, len(s.observed))
		for k, ff := range s.observed {
			obs[k] = e.Val(s.c.DFFs[ff])
		}
		tr.obs[u] = obs
	}
	return tr
}

// Detect fault-simulates seq under opt, one fault at a time, and returns
// the set of detected faults. A fault is detected when an observation
// point carries definite, differing good and faulty values.
func (s *Sim) Detect(seq logic.Sequence, opt Options) *fault.Set {
	detected := fault.NewSet(len(s.faults))
	if len(seq) == 0 {
		// fsim's contract: no functional cycle ever applies the fault, so
		// even a scan-out compare observes nothing.
		return detected
	}
	good := s.goodTrace(opt.Init, seq)
	for fi := range s.faults {
		if opt.Targets != nil && !opt.Targets.Has(fi) {
			continue
		}
		if s.simFault(fi, seq, opt, good) {
			detected.Add(fi)
		}
	}
	return detected
}

// simFault replays seq against the single faulty machine fi and reports
// whether it is detected. No early exit: the whole test is always
// replayed, keeping the control flow trivially equivalent to the
// detection definition.
func (s *Sim) simFault(fi int, seq logic.Sequence, opt Options, good *trace) (detected bool) {
	f := s.faults[fi]
	e := esim.New(s.c)
	e.InjectFault(f.Node, f.Pin, f.Stuck)
	s.scanIn(e, opt.Init)
	for u, vec := range seq {
		e.SetPIVector(vec)
		e.Settle()
		for i := range s.c.POs {
			g, fv := good.po[u][i], e.PO(i)
			if g.IsBinary() && fv.IsBinary() && g != fv {
				detected = true
			}
		}
		e.ClockFF()
	}
	if opt.ScanOut {
		last := good.obs[len(seq)-1]
		for k, ff := range s.observed {
			g, fv := last[k], e.Val(s.c.DFFs[ff])
			if g.IsBinary() && fv.IsBinary() && g != fv {
				detected = true
			}
		}
	}
	return detected
}

// DetectTest is Detect for a scan test (SI, T) with scan-out observation.
func (s *Sim) DetectTest(si logic.Vector, seq logic.Sequence, targets *fault.Set) *fault.Set {
	return s.Detect(seq, Options{Init: si, ScanOut: true, Targets: targets})
}

// DetectSet grades a whole test set: the union of per-test detections
// over the faults in targets (nil = all). Unlike the drop-on-detect
// unions in the pipeline, every test is simulated over all targets —
// slower, but independent of test order.
func (s *Sim) DetectSet(ts *scan.Set, targets *fault.Set) *fault.Set {
	detected := fault.NewSet(len(s.faults))
	for _, t := range ts.Tests {
		detected.UnionWith(s.DetectTest(t.SI, t.Seq, targets))
	}
	return detected
}

// GoodResponse computes the fault-free response of one scan test on the
// event-driven engine, in the shape of package response — the reference
// the response package's sim-based computation is checked against.
func (s *Sim) GoodResponse(t scan.Test) response.TestResponse {
	e := esim.New(s.c)
	s.scanIn(e, t.SI)
	resp := response.TestResponse{POs: make([]logic.Vector, 0, t.Len())}
	for _, v := range t.Seq {
		e.SetPIVector(v)
		e.Settle()
		resp.POs = append(resp.POs, e.POVector())
		e.ClockFF()
	}
	resp.ScanOut = make(logic.Vector, len(s.observed))
	for k, ff := range s.observed {
		resp.ScanOut[k] = e.Val(s.c.DFFs[ff])
	}
	return resp
}
