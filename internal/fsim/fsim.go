// Package fsim implements fault simulation for full-scan circuits using
// the parallel-fault method: each pass packs the good machine into slot 0
// and the faulty machines into the remaining slots of a dual-rail word
// simulator, then replays an input sequence once for the whole pass.
//
// Every pass runs on the compiled batch kernel (sim.BatchEngine): the
// circuit is lowered once into a straight-line program of dual-rail word
// ops and executed over W-word batches, so one pass carries 64*W-1
// faulty machines. The width follows the number of faults still queued,
// by the kernel's rule (sim.WidthFor): one word for up to 63,
// sim.WideWidth words (255 faults per pass) beyond. Detection results
// are bit-identical at both widths — the differential tests against
// package oracle assert this.
//
// Detection criteria follow standard practice: a fault is detected when a
// primary output carries definite, differing values in the good and
// faulty machines at some time unit, or — for scan tests — when the
// flip-flop state after the final functional clock differs observably
// (full scan makes every flip-flop observable at scan-out).
//
// Every fault-parallel run goes through one pass loop. Detect and
// DetectTest grade; Record and RecordTest also keep the per-fault
// detection record behind the compaction ledger; RecordMustInto is the
// must-detect check of the compaction trials, with a cross-pass early
// abort; Profile records per-time detections for Phase 1. ScanInScores
// counts the detections of many scan-in states over one sequence for
// Phase 1's candidates: the first state's run is a reference, and each
// other run decides a fault without simulating on once its good and
// faulty machines re-join the reference's (scanin.go). The compaction
// trials skip the prefix they share with the test they edit
// (resume.go): RecordCheckpoints grades a test and stores its faults'
// states every few vectors, ResumeMustInto starts a must-detect check
// from one of those checkpoints, and RecordExtensions grades the
// one-vector extensions of a test, simulating the test once per pass. A
// run packs its target faults into passes in ascending fault index.
//
// The pass loop evaluates a frame (one input vector) in one of two ways
// (events.go). A swept frame runs the whole compiled program over the
// batch. An event frame reads the good machine from a trace simulated
// once per run and evaluates only where a faulty machine diverges from
// it. A gate picks event frames for runs that span many passes, against
// the program's one event limit (sim.Program.EventLimit): a pass whose
// injected gates alone exceed it starts on the sweep, and a pass sweeps
// the rest of its frames once a frame executes more. On event frames a
// detected fault leaves the pass after that frame's clock: its slot
// becomes the good machine and diverges nowhere. Both kinds give the
// same detections, records, profiles and pass counters.
//
// Simulation passes are independent, so a Simulator can shard them over
// a pool of workers (SetWorkers); each worker owns a private batch engine
// and detection results are merged after the fan-out.
package fsim

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Simulator fault-simulates one circuit against a fixed fault list.
// The fault list order defines fault indices used in all result sets.
//
// A Simulator is safe for concurrent use: every simulation run checks a
// private batch engine out of an internal pool. SetWorkers additionally
// shards the passes of a single Detect call over that pool.
//
// The simulator carries the circuit's scan chain (scan.Full under New):
// a scan-in loads the state the chain's State rule gives, so scan-in
// vectors are indexed by chain position and unscanned flip-flops power
// up X at the start of every test, and a scan-out observes the chain's
// flip-flops only.
type Simulator struct {
	c      *circuit.Circuit
	faults []fault.Fault
	chain  *scan.Chain // loaded at scan-in and compared at scan-out

	mu      sync.Mutex
	workers int          // max concurrent passes per run
	idle    []*worker    // checked-in workers
	prog    *sim.Program // lazily compiled batch program
	force   *frameForce  // tests only: overrides the frame gate (nil: the gate decides)
	scanned []bool       // per flip-flop index: compared at scan-out

	// Cumulative pass-work counters (see Stats).
	passes      atomic.Int64
	passVectors atomic.Int64
	faultSlots  atomic.Int64
	traceRows   atomic.Int64 // good-trace rows simulated (events.go)
}

// PassStats is a snapshot of a Simulator's cumulative pass-work
// counters: how many parallel-fault passes ran, how many input vectors
// those passes executed in total, and how many fault slots they packed.
// PassVectors is the primary "simulated fault-pass work" metric — a pass
// that early-exits after detecting all its faults executes fewer vectors
// than the sequence length.
type PassStats struct {
	Passes      int64
	PassVectors int64
	FaultSlots  int64
}

// Sub returns the counter deltas s - o, for measuring one phase of a
// longer run.
func (s PassStats) Sub(o PassStats) PassStats {
	return PassStats{
		Passes:      s.Passes - o.Passes,
		PassVectors: s.PassVectors - o.PassVectors,
		FaultSlots:  s.FaultSlots - o.FaultSlots,
	}
}

// Stats returns the cumulative pass-work counters since construction (or
// the last ResetStats).
func (s *Simulator) Stats() PassStats {
	return PassStats{
		Passes:      s.passes.Load(),
		PassVectors: s.passVectors.Load(),
		FaultSlots:  s.faultSlots.Load(),
	}
}

// ResetStats zeroes the pass-work counters.
func (s *Simulator) ResetStats() {
	s.passes.Store(0)
	s.passVectors.Store(0)
	s.faultSlots.Store(0)
}

// worker owns the per-goroutine simulation state of one pool member.
type worker struct {
	s       *Simulator
	beng    *sim.BatchEngine
	binjBuf []sim.BatchInjection
	maskBuf []uint64     // per-fault kernel injection masks
	vecBuf  []uint64     // batch/detected/diff mask scratch
	wordBuf []logic.Word // flip-flop words loaded or kept (resume.go)
	mismBuf []uint64     // per flip-flop word: the slots a checkpoint stores
	cntBuf  []int32      // per slot: differences a checkpoint stores
}

// kernel returns the worker's batch engine switched to the given width.
// The engine's arena is allocated once, at sim.WideWidth, on first use.
func (wk *worker) kernel(width int) *sim.BatchEngine {
	if wk.beng == nil {
		wk.beng = sim.NewBatch(wk.s.program(), sim.WideWidth)
	}
	if wk.beng.Width() != width {
		wk.beng.SetWidth(width)
	}
	return wk.beng
}

// New returns a full-scan Simulator for c over the given fault list
// (typically fault.Collapse(c)).
func New(c *circuit.Circuit, faults []fault.Fault) *Simulator {
	return NewChain(c, faults, nil)
}

// NewChain returns a Simulator whose scan operations follow ch. A nil
// chain means full scan (scan.Full).
func NewChain(c *circuit.Circuit, faults []fault.Fault, ch *scan.Chain) *Simulator {
	s := &Simulator{c: c, faults: faults, chain: scan.OrFull(ch, c.NumFFs()), workers: 1}
	s.scanned = make([]bool, c.NumFFs())
	for _, i := range s.chain.FFs {
		s.scanned[i] = true
	}
	return s
}

// SetWorkers sets how many workers a single simulation run may fan its
// passes out to. n <= 0 selects runtime.NumCPU(). It returns s so the
// call chains onto New. One worker (the default) keeps runs serial.
func (s *Simulator) SetWorkers(n int) *Simulator {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	s.mu.Lock()
	s.workers = n
	s.mu.Unlock()
	return s
}

// program returns the compiled batch program, compiling on first use.
func (s *Simulator) program() *sim.Program {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prog == nil {
		s.prog = sim.Compile(s.c)
	}
	return s.prog
}

// Workers returns the configured worker bound.
func (s *Simulator) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// acquire checks a worker out of the pool, creating one if none is idle.
func (s *Simulator) acquire() *worker {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		return w
	}
	s.mu.Unlock()
	return &worker{s: s}
}

// release returns a worker to the pool.
func (s *Simulator) release(w *worker) {
	s.mu.Lock()
	s.idle = append(s.idle, w)
	s.mu.Unlock()
}

// Nsv returns the number of scanned state variables (the cost model's
// N_SV): the chain length.
func (s *Simulator) Nsv() int { return s.chain.Nsv() }

// Circuit returns the simulated netlist.
func (s *Simulator) Circuit() *circuit.Circuit { return s.c }

// Faults returns the fault list (do not modify).
func (s *Simulator) Faults() []fault.Fault { return s.faults }

// NumFaults returns the size of the fault list.
func (s *Simulator) NumFaults() int { return len(s.faults) }

// Options selects what a Detect run observes and simulates.
type Options struct {
	// Init is the scan-in state; nil runs without scan from the all-X
	// power-up state.
	Init logic.Vector
	// ScanOut adds the final flip-flop state to the observation points
	// (the scan-out compare of a scan test).
	ScanOut bool
	// Targets limits simulation to the faults in the set; nil simulates
	// the whole fault list.
	Targets *fault.Set
}

// runSpec carries the per-run parameters shared by every pass of one
// simulation run. It is read-only during the fan-out.
type runSpec struct {
	seq     logic.Sequence
	state   logic.Vector // the flip-flop state the scan-in loads
	scanOut bool
	profile *Profile     // per-time recording target, or nil
	rec     *Record      // detection-record target, or nil (see record.go)
	abort   *atomic.Bool // cross-pass abort for must-detect checks, or nil
	ref     *reference   // scan-in reference written or read, or nil (see scanin.go)
	repack  bool         // survivor repacking enabled (see run)

	// Stored states (see resume.go). A checkpoint run saves its passes'
	// states into save. A resumed run starts each pass from the states
	// from holds at position at, the test position of seq[0]. An
	// extension run ends each pass on every vector of tails in turn,
	// recording tail i into tailRecs[i].
	save     *Checkpoints
	from     *Checkpoints
	at       int
	tails    []logic.Vector
	tailRecs []*Record

	// Event frames (see events.go): with a trace, every pass starts on
	// event frames and sweeps the frames after one that falls back.
	trace      *trace
	frameLimit int // executed instructions past which a frame falls back
	fallbackAt int // tests: every pass falls back after this frame; -1: never
}

// Detect fault-simulates seq under opt and returns the set of detected
// faults. Within each pass, simulation stops early once every fault in
// the pass is detected (unless the scan-out compare could still matter,
// which it cannot once everything is detected).
func (s *Simulator) Detect(seq logic.Sequence, opt Options) *fault.Set {
	detected := fault.NewSet(len(s.faults))
	s.run(seq, opt, detected, &runSpec{})
	return detected
}

// DetectTest is Detect for a scan test (SI, T) with scan-out observation.
func (s *Simulator) DetectTest(si logic.Vector, seq logic.Sequence, targets *fault.Set) *fault.Set {
	return s.Detect(seq, Options{Init: si, ScanOut: true, Targets: targets})
}

// targetIndices returns the target faults' indices in ascending order,
// the order a run packs them into passes; nil targets the whole list.
func (s *Simulator) targetIndices(targets *fault.Set) []int {
	if targets == nil {
		return fault.NewFullSet(len(s.faults)).Indices()
	}
	return targets.Indices()
}

// run executes one simulation run of seq under opt: it resolves the
// targets, decides the batch geometry (64*width - 1 faults per pass, the
// width picked by sim.WidthFor for the queued targets plus the good
// machine), and fans the passes out over the worker pool. spec carries
// what the run keeps or obeys beyond detection (a profile, a record, an
// abort flag, a scan-in reference, stored states); run fills in the
// rest. Detections are accumulated into detected and — in profile mode
// — per-time scan-out data into spec.profile. A non-nil spec.abort
// turns the run into a must-detect check: a completed pass with an
// undetected fault aborts the remaining ones.
//
// Without an abort flag or a reference, passes additionally repack: a
// pass most of whose faults are already detected aborts early and hands
// its few undetected survivors to the next generation, where survivors
// from many passes consolidate into fresh, tighter passes (re-simulated
// from scratch). Per-fault detection is independent of pass packing, so
// results are bit-identical; each generation is at most half the size
// of the previous one, so the loop terminates in O(log targets)
// generations. A run with a reference or stored states keeps its
// packing: it neither repacks nor takes event frames.
func (s *Simulator) run(seq logic.Sequence, opt Options, detected *fault.Set, spec *runSpec) {
	targets := s.targetIndices(opt.Targets)
	if len(targets) == 0 {
		return
	}
	spec.seq, spec.state, spec.scanOut = seq, s.chain.State(opt.Init), opt.ScanOut
	// Recording (rec, profile) deliberately keeps repacking on: the
	// per-fault data is packing-independent, and survivors of an aborted
	// pass are re-simulated from scratch, so a record entry is written
	// (exactly once) by the generation that detects the fault, and a
	// survivor's profile bits are set again, unchanged.
	sweeps := spec.ref != nil || spec.save != nil || spec.from != nil || spec.tails != nil
	spec.repack = spec.abort == nil && !sweeps && len(seq) > 1
	if !sweeps {
		s.gateFrames(spec, len(targets))
	}
	if spec.trace != nil {
		defer s.release(spec.trace.wk)
	}
	abort := spec.abort

	for queue := targets; len(queue) > 0; {
		width := sim.WidthFor(len(queue) + 1)
		bs := 64*width - 1
		nb := (len(queue) + bs - 1) / bs
		survByPass := make([][]int, nb)
		if spec.ref != nil && spec.ref.build {
			spec.ref.passes = make([]refPass, nb)
		}
		if spec.save != nil {
			spec.save.passes = make([][]cpState, nb)
		}

		// passes runs the passes it pulls from a shared counter on one
		// worker, collecting detections into set, until none are left or
		// the must-detect check fails. Survivors land in a per-pass slot,
		// so the next generation's queue order does not depend on
		// goroutine scheduling.
		var next atomic.Int64
		passes := func(set *fault.Set) {
			w := s.acquire()
			defer s.release(w)
			for {
				k := int(next.Add(1)) - 1
				if k >= nb || abort != nil && abort.Load() {
					return
				}
				batch := queue[k*bs : min((k+1)*bs, len(queue))]
				survByPass[k] = w.simulate(k, batch, spec, width, set)
				if abort != nil && !containsAllIdx(set, batch) {
					abort.Store(true)
					return
				}
			}
		}
		if workers := min(s.Workers(), nb); workers <= 1 {
			passes(detected)
		} else {
			// Parallel fan-out: each worker collects into a private set,
			// merged once at the end — the hot path takes no locks.
			var mu sync.Mutex
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					local := fault.NewSet(len(s.faults))
					passes(local)
					mu.Lock()
					detected.UnionWith(local)
					mu.Unlock()
				}()
			}
			wg.Wait()
		}

		var surv []int
		for _, sv := range survByPass {
			surv = append(surv, sv...)
		}
		queue = surv
	}
}

// containsAllIdx reports whether every index in batch is in set.
func containsAllIdx(set *fault.Set, batch []int) bool {
	for _, fi := range batch {
		if !set.Has(fi) {
			return false
		}
	}
	return true
}

// simulate runs pass k of a run at the chosen width and updates the
// pass-work counters: each pass and the vectors it actually executed
// (early exits cut the vector count). The returned slice holds the
// survivors of a repacked pass (nil when the pass ran to completion or
// fully detected its faults).
func (w *worker) simulate(k int, batch []int, spec *runSpec, width int, detected *fault.Set) []int {
	nvec, surv := w.runPass(k, batch, spec, width, detected)
	w.s.passes.Add(1)
	w.s.passVectors.Add(int64(nvec))
	w.s.faultSlots.Add(int64(len(batch)))
	return surv
}

// repackable reports whether a pass at vector u (of seqLen) may still
// abort for survivor repacking: only within the first three quarters of
// the sequence — later aborts save too few vectors to pay for the
// survivors' re-simulation.
func repackable(u, seqLen int) bool {
	return 4*(u+1) <= 3*seqLen
}

// runPass simulates one parallel-fault pass over spec.seq on the
// compiled batch kernel; pass is its index in the run. batch holds the
// fault indices of the pass, at most 64*width - 1 of them: slot 0
// carries the good machine and fault batch[i] sits in slot i+1. Inputs
// are broadcast and slot 0 is never injected, so the good value of a
// signal is bit 0 of its word 0, and every word compares against that
// bit's broadcast. Detections are added to detected. In profile mode
// (spec.profile non-nil) each clock also records which undetected faults
// a scan-out would catch; the pass drops, exits early and repacks as any
// other. The run that writes a scan-in reference (spec.ref, scanin.go)
// records it instead of early-exiting; the runs that read one decide
// re-joined slots at its checkpoints. A checkpoint run stores its
// undetected slots' states at its checkpoints, a resumed run loads them
// and counts positions from spec.at, and an extension run ends on
// each of its tail vectors (resume.go). It returns the number of input
// vectors actually executed, plus the undetected survivors when the
// pass repacked (see run).
func (wk *worker) runPass(pass int, batch []int, spec *runSpec, width int, detected *fault.Set) (int, []int) {
	s := wk.s
	eng := wk.kernel(width)
	events := spec.trace != nil
	if !events {
		eng.Reset()
	}

	if need := len(batch) * width; cap(wk.maskBuf) < need {
		wk.maskBuf = make([]uint64, need)
	} else {
		wk.maskBuf = wk.maskBuf[:need]
		clear(wk.maskBuf)
	}
	if cap(wk.vecBuf) < 3*width {
		wk.vecBuf = make([]uint64, 3*width)
	} else {
		wk.vecBuf = wk.vecBuf[:3*width]
		clear(wk.vecBuf)
	}
	batchMask := wk.vecBuf[0*width : 1*width]
	detMask := wk.vecBuf[1*width : 2*width] // decided: detected, or re-joined the reference
	diff := wk.vecBuf[2*width : 3*width]

	wk.binjBuf = wk.binjBuf[:0]
	for bi, fi := range batch {
		gs := bi + 1 // global slot of this fault
		m := wk.maskBuf[bi*width : (bi+1)*width]
		m[gs>>6] = 1 << (uint(gs) & 63)
		batchMask[gs>>6] |= m[gs>>6]
		wk.binjBuf = append(wk.binjBuf, s.faults[fi].Injection(m))
	}
	eng.SetInjections(wk.binjBuf)

	if events && eng.StartEvents() > spec.frameLimit {
		// Every frame would execute more than the limit, so the first
		// one would fall back: sweep from the start.
		events = false
	}
	if !events {
		if c := spec.from.index(spec.at); c >= 0 {
			spec.from.load(eng, c, batch, scratch(&wk.wordBuf, s.c.NumFFs()*width))
		} else {
			eng.SetStateVector(spec.state)
		}
	}

	profile, ref := spec.profile, spec.ref
	var rp *refPass
	if ref != nil {
		rp = &ref.passes[pass]
		if ref.build {
			rp.start(eng, ref.ncp, len(batch))
		}
	}
	var row []logic.Value // the trace row of an event frame
	for u, vec := range spec.seq {
		if spec.abort != nil && spec.abort.Load() {
			return u, nil // another pass already failed the must-detect check
		}
		clear(diff)
		executed := 0
		if events {
			// Only a diverged PO can differ from the good machine.
			row = spec.trace.row(u)
			executed = eng.EventFrame(row)
			for _, po := range s.c.POs {
				if eng.Diverged(po) {
					observe(diff, eng.Val(po), logic.FromValue(row[po]))
				}
			}
		} else {
			eng.SetPIVector(vec)
			eng.EvalComb()
			for i := range s.c.POs {
				wv := eng.PO(i)
				observe(diff, wv, wv[0].BroadcastSlot(0))
			}
		}
		if ref != nil && ref.build {
			rp.notePO(diff, batchMask, u)
		}
		newly := false
		for k := 0; k < width; k++ {
			d := diff[k] & batchMask[k] &^ detMask[k]
			if d != 0 {
				newly = true
				for m := d; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					fi := batch[k*64+b-1]
					detected.Add(fi)
					if spec.rec != nil {
						spec.rec.first[fi] = int32(spec.at + u)
					}
					for _, r := range spec.tailRecs {
						r.first[fi] = int32(spec.at + u)
					}
				}
				detMask[k] |= d
			}
		}
		if events {
			eng.EventClock()
			if newly {
				// A detected fault is decided: its slot becomes the good
				// machine and stops diverging. Every later compare masks
				// it out with detMask.
				eng.DropSlots(detMask)
			}
			if spec.fallback(u, executed) {
				eng.EndEvents()
				events = false
			}
		} else {
			eng.ClockFF()
		}
		if profile != nil {
			// Record which undetected faults a scan-out after this clock
			// would catch. A swept frame keeps detected slots diverged,
			// so the mask keeps it equal to an event frame, which
			// dropped them.
			clear(diff)
			s.scanDiff(eng, events, row, diff)
			for k := 0; k < width; k++ {
				for m := diff[k] & batchMask[k] &^ detMask[k]; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					profile.setStateDiff(batch[k*64+b-1], u)
				}
			}
		}
		if spec.save != nil {
			if c := spec.save.index(u + 1); c >= 0 {
				live := diff // free until the next frame
				for k := range live {
					live[k] = batchMask[k] &^ detMask[k]
				}
				spec.save.save(pass, c, eng, batch, live,
					scratch(&wk.mismBuf, s.c.NumFFs()*width), scratch(&wk.cntBuf, 64*width))
			}
		}
		if ref != nil {
			c := ref.checkpoint(u)
			switch {
			case ref.build:
				if c >= 0 {
					rp.save(eng, c)
				}
				continue // the reference sweeps every frame
			case c >= 0:
				rp.rejoin(eng, c, u, batch, batchMask, detMask, diff, detected)
			}
		}
		if masksEqual(detMask, batchMask) {
			return u + 1, nil // every fault in this pass detected or decided
		}
		if spec.repack && repackable(u, len(spec.seq)) {
			ndet := 0
			for k := 0; k < width; k++ {
				ndet += bits.OnesCount64(detMask[k])
			}
			// Abort only when survivors number at most half of the batch,
			// so consecutive generations shrink geometrically.
			if live := len(batch) - ndet; 2*live <= len(batch) {
				var surv []int
				for bi, fi := range batch {
					if gs := bi + 1; detMask[gs>>6]&(1<<(uint(gs)&63)) == 0 {
						surv = append(surv, fi)
					}
				}
				return u + 1, surv
			}
		}
	}
	if spec.tails != nil {
		live := batchMask // the pass ends here
		for k := range live {
			live[k] &^= detMask[k]
		}
		return len(spec.seq) + wk.extend(eng, spec, batch, live, diff), nil
	}
	if spec.scanOut {
		clear(diff)
		s.scanDiff(eng, events, row, diff)
		if ref != nil && ref.build {
			for k := range rp.so {
				rp.so[k] = diff[k] & batchMask[k]
			}
		}
		for k := 0; k < width; k++ {
			for m := diff[k] & batchMask[k] &^ detMask[k]; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				fi := batch[k*64+b-1]
				detected.Add(fi)
				if spec.rec != nil {
					spec.rec.so[fi] = true
				}
			}
		}
	}
	return len(spec.seq), nil
}

// observe ORs into diff the slots where wv and the good word g carry
// definite, differing values.
func observe(diff []uint64, wv logic.WordVec, g logic.Word) {
	for k := range diff {
		diff[k] |= logic.DiffDefinite(wv[k], g)
	}
}

// scanDiff ORs into diff the slots whose state a scan-out after the last
// clock would tell from the good machine's. After an event clock only
// the diverged flip-flops can differ, and the good state is the row's
// value of each one's D driver; after a swept clock slot 0 holds it.
func (s *Simulator) scanDiff(eng *sim.BatchEngine, events bool, row []logic.Value, diff []uint64) {
	if !events {
		for _, ff := range s.chain.FFs {
			wv := eng.State(ff)
			observe(diff, wv, wv[0].BroadcastSlot(0))
		}
		return
	}
	for _, i := range eng.DivergedFFs() {
		if s.scanned[i] {
			observe(diff, eng.State(int(i)), logic.FromValue(row[s.c.Nodes[s.c.DFFs[i]].Fanin[0]]))
		}
	}
}

// masksEqual reports a == b word for word (equal lengths assumed).
func masksEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Coverage is the fraction of the fault list detected by set (0..1).
func Coverage(detected *fault.Set, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(detected.Count()) / float64(total)
}
