package jobs

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/workload"
)

// Request describes one pipeline submission. Exactly one circuit source
// must be set: Bench (a .bench netlist text, e.g. an HTTP upload),
// Roster (a roster circuit name — runs with the roster's per-circuit
// seed offset, exactly like workload.RunAll), or Circuit (an
// already-built netlist, e.g. from a CLI that parsed its own input).
type Request struct {
	Bench   string
	Roster  string
	Circuit *circuit.Circuit
	// Name overrides the display name for Bench submissions (the cache
	// key never includes the name, so renames still hit).
	Name   string
	Config workload.Config
}

// resolved is a Request after source resolution: the circuit to run,
// its config with the effective seed in Seed, and the content-address
// key. An upload keyed from the memo has no circuit yet: its job parses
// bench under name when it runs.
type resolved struct {
	name  string
	ckt   *circuit.Circuit
	bench string
	cfg   workload.Config
	key   Key
}

// uploadMemo is what resolving one .bench text found, so that the same
// text submitted again is keyed without a parse: its circuit digest and
// its flip-flop count, which decides whether a chain is full scan.
type uploadMemo struct {
	circuit string
	ffs     int
}

// maxUploadMemo caps the upload memo (about 0.5 MB at the cap); a full
// memo is cleared.
const maxUploadMemo = 4096

// Resolve parses/generates the request's circuit and computes its
// artifact key without running anything. It is also the submission-time
// validation gate: malformed netlists, unknown roster names and configs
// workload.Config.Validate rejects fail here, before a job is created.
// A chain of every flip-flop runs full scan, so its ScanFFs becomes 0
// before the key is taken and the request shares the full-scan bundle.
// A .bench text that resolved before is keyed from the upload memo,
// without a parse; only texts that resolved are memoized, so a rejected
// upload fails again on every submission.
func (q *Queue) resolve(req Request) (*resolved, error) {
	cfg := req.Config
	cfg.Progress = nil // never part of identity; reinstalled per run
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sources := 0
	if req.Bench != "" {
		sources++
	}
	if req.Roster != "" {
		sources++
	}
	if req.Circuit != nil {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("jobs: request needs exactly one of Bench, Roster, Circuit (got %d)", sources)
	}

	switch {
	case req.Roster != "":
		entry, ok := gen.FindEntry(req.Roster)
		if !ok {
			return nil, fmt.Errorf("jobs: unknown roster circuit %q", req.Roster)
		}
		ckt, err := gen.Generate(entry.Params)
		if err != nil {
			return nil, fmt.Errorf("jobs: %s: %v", req.Roster, err)
		}
		// The roster's per-circuit seed offset, as in workload.Run.
		cfg.Seed += entry.Params.Seed
		return q.resolveCircuit(ckt, cfg)

	case req.Bench != "":
		name := req.Name
		if name == "" {
			name = "upload"
		}
		sum := sha256.Sum256([]byte(req.Bench))
		q.mu.Lock()
		m, ok := q.uploads[sum]
		q.mu.Unlock()
		if ok {
			cfg = fullScan(m.ffs, cfg)
			return &resolved{name: name, bench: req.Bench, cfg: cfg,
				key: Key{Circuit: m.circuit, Config: ConfigFingerprint(cfg, cfg.Seed)}}, nil
		}
		ckt, err := bench.ParseString(name, req.Bench)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
		res, err := q.resolveCircuit(ckt, cfg)
		if err != nil {
			return nil, err
		}
		q.mu.Lock()
		if q.uploads == nil || len(q.uploads) >= maxUploadMemo {
			q.uploads = map[[sha256.Size]byte]uploadMemo{}
		}
		q.uploads[sum] = uploadMemo{circuit: res.key.Circuit, ffs: ckt.NumFFs()}
		q.mu.Unlock()
		return res, nil

	default:
		return q.resolveCircuit(req.Circuit, cfg)
	}
}

func (q *Queue) resolveCircuit(ckt *circuit.Circuit, cfg workload.Config) (*resolved, error) {
	// The pipeline is defined over scan circuits: it needs primary
	// inputs to drive and flip-flops to scan.
	if ckt.NumPIs() == 0 {
		return nil, fmt.Errorf("%w: circuit %s has no primary inputs", ErrUnsupported, ckt.Name)
	}
	if ckt.NumFFs() == 0 {
		return nil, fmt.Errorf("%w: circuit %s has no flip-flops (not a scan circuit)", ErrUnsupported, ckt.Name)
	}
	cfg = fullScan(ckt.NumFFs(), cfg)
	return &resolved{
		name: ckt.Name,
		ckt:  ckt,
		cfg:  cfg,
		key:  Key{Circuit: CircuitDigest(ckt), Config: ConfigFingerprint(cfg, cfg.Seed)},
	}, nil
}

// fullScan writes a chain of all ffs flip-flops as ScanFFs 0, the
// full-scan setting workload.Config.Chain maps it to.
func fullScan(ffs int, cfg workload.Config) workload.Config {
	if cfg.ScanFFs >= ffs {
		cfg.ScanFFs = 0
	}
	return cfg
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"   // computed this submission
	StateCached  State = "cached" // served from the artifact store
	StateFailed  State = "failed"
)

// Job is one tracked submission. Concurrent submissions of the same
// artifact key share one Job (single-flight): every submitter gets the
// same *Job and the pipeline runs once.
type Job struct {
	ID   string
	Name string
	Key  Key

	mu        sync.Mutex
	state     State
	phases    []string // progress phases entered, in order
	err       error
	artifacts *Artifacts
	subs      []chan string

	done chan struct{}
}

// Snapshot returns the job's current state, the phases entered so far,
// and its error (nil unless failed).
func (j *Job) Snapshot() (State, []string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, append([]string(nil), j.phases...), j.err
}

// Artifacts returns the completed bundle (nil until done/cached). It is
// shared with the store and with every other job of the key, and must
// not be modified.
func (j *Job) Artifacts() *Artifacts {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.artifacts
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes or ctx is cancelled, returning
// the job's error.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		_, _, err := j.Snapshot()
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Follow subscribes to the job's progress: the returned channel yields
// every phase already entered, then live phases, and closes when the
// job completes. Call the cancel function to unsubscribe early.
func (j *Job) Follow() (<-chan string, func()) {
	// The backlog goes in under j.mu, into a channel with room for all of
	// it, so finish cannot close the channel mid-replay. The 16 extra
	// slots buffer live phases for a slow reader; emit drops beyond that.
	j.mu.Lock()
	ch := make(chan string, len(j.phases)+16)
	for _, p := range j.phases {
		ch <- p
	}
	if j.state == StateDone || j.state == StateCached || j.state == StateFailed {
		close(ch)
	} else {
		j.subs = append(j.subs, ch)
	}
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		for i, s := range j.subs {
			if s == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
	}
	return ch, cancel
}

// emit records a phase and fans it out to followers. Followers that
// cannot keep up drop phases rather than block the pipeline. Channel
// sends and closes all happen under j.mu, so no send can meet a channel
// that finish has already closed.
func (j *Job) emit(phase string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.phases = append(j.phases, phase)
	for _, ch := range j.subs {
		select {
		case ch <- phase:
		default:
		}
	}
}

// finish moves the job to a terminal state and wakes every waiter.
func (j *Job) finish(state State, a *Artifacts, err error) {
	j.mu.Lock()
	j.state = state
	j.artifacts = a
	j.err = err
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	j.mu.Unlock()
	close(j.done)
}

// Options tunes a Queue.
type Options struct {
	// Workers is the number of concurrent pipeline runs (0 = 1).
	Workers int
	// MaxPending bounds the queued-but-not-running jobs (0 = 64); a full
	// queue rejects submissions with ErrQueueFull.
	MaxPending int
}

// ErrQueueFull is returned by Submit when the pending queue is at
// capacity.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: queue closed")

// ErrParse marks a request whose netlist text failed to parse (an HTTP
// front end maps it to 400).
var ErrParse = errors.New("jobs: netlist parse error")

// ErrUnsupported marks a well-formed netlist the pipeline cannot run
// (no PIs, no flip-flops; mapped to 422).
var ErrUnsupported = errors.New("jobs: unsupported circuit")

// Metrics is a snapshot of the queue's counters.
type Metrics struct {
	Submitted    int64
	Computations int64 // pipeline actually ran
	CacheHits    int64 // served from the store without running
	Deduped      int64 // folded into an in-flight job
	Failures     int64
	Pending      int // jobs waiting for a worker
	Running      int
	// PhaseSeconds accumulates wall time per pipeline phase across all
	// computed jobs (keyed by phase name, plus "total").
	PhaseSeconds map[string]float64
}

// Queue runs submitted jobs on a bounded worker pool, deduplicating
// concurrent identical submissions and consulting/filling the artifact
// store around each run.
type Queue struct {
	store *Store

	mu       sync.Mutex
	jobs     map[string]*Job // by job ID
	inflight map[string]*Job // by artifact key
	nextID   int
	closed   bool

	pending chan *Job
	runArgs map[*Job]*resolved
	wg      sync.WaitGroup

	uploads map[[sha256.Size]byte]uploadMemo // by SHA-256 of the .bench text; made on first insert

	submitted, computations, cacheHits, deduped, failures int64
	running                                               int
	phaseSeconds                                          map[string]float64
}

// NewQueue creates a queue over the given store (which may be nil to
// disable caching) and starts its workers.
func NewQueue(store *Store, opt Options) *Queue {
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if opt.MaxPending <= 0 {
		opt.MaxPending = 64
	}
	q := &Queue{
		store:        store,
		jobs:         map[string]*Job{},
		inflight:     map[string]*Job{},
		pending:      make(chan *Job, opt.MaxPending),
		runArgs:      map[*Job]*resolved{},
		phaseSeconds: map[string]float64{},
	}
	for i := 0; i < opt.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit resolves the request and returns its Job. The fast paths never
// enqueue: a store hit returns an already-terminal StateCached job, and
// a submission whose key is already in flight returns the existing Job.
func (q *Queue) Submit(req Request) (*Job, error) {
	res, err := q.resolve(req)
	if err != nil {
		return nil, err
	}

	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	q.submitted++
	if j, ok := q.inflight[res.key.String()]; ok {
		q.deduped++
		q.mu.Unlock()
		return j, nil
	}
	q.nextID++
	id := fmt.Sprintf("j%06d", q.nextID)
	q.mu.Unlock()

	// Store lookup outside the queue lock: a hit makes a syscall, and the
	// first hit of a bundle OpenStore found reads it from disk; neither
	// may serialize submissions.
	if q.store != nil {
		if a, ok, err := q.store.Get(res.key); err != nil {
			return nil, err
		} else if ok {
			j := &Job{ID: id, Name: res.name, Key: res.key, state: StateCached, done: make(chan struct{})}
			j.finish(StateCached, a, nil)
			q.mu.Lock()
			q.cacheHits++
			q.jobs[id] = j
			q.mu.Unlock()
			return j, nil
		}
	}

	j := &Job{ID: id, Name: res.name, Key: res.key, state: StateQueued, done: make(chan struct{})}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	// Re-check in-flight: another submitter may have won the race while
	// we consulted the store.
	if prev, ok := q.inflight[res.key.String()]; ok {
		q.deduped++
		q.mu.Unlock()
		return prev, nil
	}
	q.jobs[id] = j
	q.inflight[res.key.String()] = j
	q.runArgs[j] = res
	q.mu.Unlock()

	select {
	case q.pending <- j:
		return j, nil
	default:
		q.mu.Lock()
		delete(q.jobs, id)
		delete(q.inflight, res.key.String())
		delete(q.runArgs, j)
		q.mu.Unlock()
		j.finish(StateFailed, nil, ErrQueueFull)
		return nil, ErrQueueFull
	}
}

// Lookup returns a job by ID.
func (q *Queue) Lookup(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Store returns the queue's artifact store (nil if caching is off).
func (q *Queue) Store() *Store { return q.store }

func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.pending {
		q.runJob(j)
	}
}

// runJob executes one job, converting panics into job failures so a bad
// netlist can never take a worker down.
func (q *Queue) runJob(j *Job) {
	q.mu.Lock()
	res := q.runArgs[j]
	delete(q.runArgs, j)
	q.running++
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	q.mu.Unlock()

	start := time.Now()
	var lastPhase string
	var lastPhaseStart time.Time
	phaseTimes := map[string]float64{}
	progress := func(phase string) {
		now := time.Now()
		if lastPhase != "" {
			phaseTimes[lastPhase] += now.Sub(lastPhaseStart).Seconds()
		}
		lastPhase, lastPhaseStart = phase, now
		j.emit(phase)
	}

	a, err := func() (a *Artifacts, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("jobs: pipeline panic: %v", r)
			}
		}()
		ckt := res.ckt
		if ckt == nil {
			if ckt, err = bench.ParseString(res.name, res.bench); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
		}
		cfg := res.cfg
		cfg.Progress = progress
		run, err := workload.RunCircuit(ckt, cfg)
		if err != nil {
			return nil, err
		}
		return EncodeRun(run)
	}()
	if lastPhase != "" {
		phaseTimes[lastPhase] += time.Since(lastPhaseStart).Seconds()
	}
	phaseTimes["total"] = time.Since(start).Seconds()

	if err == nil && q.store != nil {
		err = q.store.Put(j.Key, a)
	}

	q.mu.Lock()
	delete(q.inflight, j.Key.String())
	q.running--
	if err != nil {
		q.failures++
	} else {
		q.computations++
	}
	for p, s := range phaseTimes {
		q.phaseSeconds[p] += s
	}
	q.mu.Unlock()

	if err != nil {
		j.finish(StateFailed, nil, err)
		return
	}
	j.finish(StateDone, a, nil)
}

// Metrics returns a snapshot of the queue's counters.
func (q *Queue) Metrics() Metrics {
	q.mu.Lock()
	defer q.mu.Unlock()
	m := Metrics{
		Submitted:    q.submitted,
		Computations: q.computations,
		CacheHits:    q.cacheHits,
		Deduped:      q.deduped,
		Failures:     q.failures,
		Pending:      len(q.pending),
		Running:      q.running,
		PhaseSeconds: map[string]float64{},
	}
	for p, s := range q.phaseSeconds {
		m.PhaseSeconds[p] = s
	}
	return m
}

// Close stops accepting submissions and drains in-flight jobs, waiting
// up to ctx's deadline. Jobs still pending when the deadline passes
// keep running in their goroutines but are no longer waited for.
func (q *Queue) Close(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	q.mu.Unlock()
	close(q.pending)

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: close: %w", ctx.Err())
	}
}
