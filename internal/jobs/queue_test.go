package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/workload"
)

// fastCfg keeps pipeline runs quick for the queue tests.
func fastCfg() workload.Config {
	return workload.Config{T0MaxLen: 80, RandomT0Len: 150, SkipRandom: true, SkipBaselines: true, SkipDynamic: true}
}

func newTestQueue(t *testing.T, store *Store, opt Options) *Queue {
	t.Helper()
	q := NewQueue(store, opt)
	t.Cleanup(func() {
		if err := q.Close(context.Background()); err != nil {
			t.Errorf("queue close: %v", err)
		}
	})
	return q
}

func TestSubmitValidation(t *testing.T) {
	q := newTestQueue(t, nil, Options{Workers: 1})
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"no source", Request{}, nil},
		{"two sources", Request{Bench: benchBase, Roster: "b01"}, nil},
		{"unknown roster", Request{Roster: "no-such-circuit"}, nil},
		{"parse error", Request{Bench: "INPUT(G0"}, ErrParse},
		{"no flip-flops", Request{Bench: "INPUT(A)\nOUTPUT(B)\nB = NOT(A)\n"}, ErrUnsupported},
		{"no inputs", Request{Bench: "OUTPUT(B)\nG1 = DFF(B)\nB = NOT(G1)\n"}, ErrUnsupported},
	}
	for _, tc := range cases {
		_, err := q.Submit(tc.req)
		if err == nil {
			t.Errorf("%s: Submit succeeded", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestResolveFullScanKey: a chain that covers every flip-flop runs full
// scan, so it must share the full-scan request's key, whatever the
// circuit source.
func TestResolveFullScanKey(t *testing.T) {
	q := newTestQueue(t, nil, Options{Workers: 1})
	ckt, err := bench.ParseString("upload", benchBase)
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]Request{
		"roster":  {Roster: "b01"},
		"bench":   {Bench: benchBase},
		"circuit": {Circuit: ckt},
	} {
		var keys [2]Key
		for i, scanFFs := range []int{0, 1000} {
			req.Config = fastCfg()
			req.Config.ScanFFs = scanFFs
			r, err := q.resolve(req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			keys[i] = r.key
		}
		if keys[0] != keys[1] {
			t.Errorf("%s: ScanFFs 1000 keys %s, full scan %s", name, keys[1], keys[0])
		}
	}
}

// TestRosterMatchesUpload: a roster request runs the circuit resolve
// generated at the entry's seed plus the request's offset, so it must
// share its key and its results with an upload of the same netlist at
// that effective seed. Without a store both requests compute.
func TestRosterMatchesUpload(t *testing.T) {
	q := newTestQueue(t, nil, Options{Workers: 1})
	entry, ok := gen.FindEntry("b01")
	if !ok {
		t.Fatal("roster circuit b01 missing")
	}
	roster := Request{Roster: "b01", Config: fastCfg()}
	roster.Config.Seed = 3
	upload := Request{Bench: bench.WriteString(gen.MustGenerate(entry.Params)), Name: "b01", Config: fastCfg()}
	upload.Config.Seed = entry.Params.Seed + 3
	var jobs [2]*Job
	for i, req := range []Request{roster, upload} {
		j, err := q.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	if jobs[0].Key != jobs[1].Key {
		t.Errorf("roster key %s, upload key %s", jobs[0].Key, jobs[1].Key)
	}
	if m := q.Metrics(); m.Computations != 2 {
		t.Fatalf("%d computations, want 2", m.Computations)
	}
	for _, name := range []string{FileSummary, FilePropFinal} {
		r, u := jobs[0].Artifacts().Files[name], jobs[1].Artifacts().Files[name]
		if len(r) == 0 || string(r) != string(u) {
			t.Errorf("%s differs between roster request and upload (%d vs %d bytes)", name, len(r), len(u))
		}
	}
}

// TestSubmitMemo: a .bench text that resolved before is keyed from the
// upload memo, without a parse, exactly as a fresh parse keys it; only
// texts that resolved are memoized; a memo hit that misses the store
// computes its bundle; and a memo past its cap still keys correctly.
func TestSubmitMemo(t *testing.T) {
	store, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := newTestQueue(t, store, Options{Workers: 1})
	// parsed keys req as a queue whose memo is empty does: by a parse.
	parsed := func(req Request) Key {
		t.Helper()
		r, err := new(Queue).resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		return r.key
	}
	memoized := func() int {
		q.mu.Lock()
		defer q.mu.Unlock()
		return len(q.uploads)
	}
	// resolveMemo resolves req on q and fails unless the memo keyed it.
	resolveMemo := func(req Request) *resolved {
		t.Helper()
		r, err := q.resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		if r.ckt != nil {
			t.Fatalf("%q (seed %d, scan %d) was parsed, not keyed from the memo", req.Name, req.Config.Seed, req.Config.ScanFFs)
		}
		return r
	}

	// One text under two names and two seeds.
	if _, err := q.resolve(Request{Bench: benchBase, Config: fastCfg()}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		for _, seed := range []int64{1, 2} {
			req := Request{Bench: benchBase, Name: name, Config: fastCfg()}
			req.Config.Seed = seed
			r := resolveMemo(req)
			if want := parsed(req); r.key != want {
				t.Errorf("%s/seed %d: memo key %s, parsed key %s", name, seed, r.key, want)
			}
			if r.name != name {
				t.Errorf("%s/seed %d: job name %q", name, seed, r.name)
			}
		}
	}
	if n := memoized(); n != 1 {
		t.Errorf("memo holds %d texts after one distinct upload", n)
	}
	// A gate-permuted text is another memo entry with the same circuit.
	shuffled := Request{Bench: benchShuffled, Config: fastCfg()}
	for i := 0; i < 2; i++ {
		r, err := q.resolve(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if base := parsed(Request{Bench: benchBase, Config: fastCfg()}); r.key != base {
			t.Errorf("gate-permuted upload keyed %s, base %s", r.key, base)
		}
	}

	// ScanFFs at or above the flip-flop count keys as full scan.
	ckt, ok := gen.RosterCircuit("b01")
	if !ok || ckt.NumFFs() < 2 {
		t.Fatal("roster circuit b01 missing or without a partial chain")
	}
	ffs := ckt.NumFFs()
	text := bench.WriteString(ckt)
	if _, err := q.resolve(Request{Bench: text, Config: fastCfg()}); err != nil {
		t.Fatal(err)
	}
	full := parsed(Request{Bench: text, Config: fastCfg()})
	for _, scan := range []int{0, ffs - 1, ffs, ffs + 7} {
		req := Request{Bench: text, Config: fastCfg()}
		req.Config.ScanFFs = scan
		r := resolveMemo(req)
		if want := parsed(req); r.key != want {
			t.Errorf("ScanFFs %d of %d: memo key %s, parsed key %s", scan, ffs, r.key, want)
		}
		if (r.key == full) != (scan == 0 || scan >= ffs) {
			t.Errorf("ScanFFs %d of %d: full-scan key %v", scan, ffs, r.key == full)
		}
	}

	// Rejected uploads fail on every submission and are not memoized.
	before := memoized()
	for i := 0; i < 3; i++ {
		if _, err := q.Submit(Request{Bench: "INPUT(G0"}); !errors.Is(err, ErrParse) {
			t.Errorf("malformed upload, submission %d: %v, want ErrParse", i, err)
		}
		if _, err := q.Submit(Request{Bench: "INPUT(A)\nOUTPUT(B)\nB = NOT(A)\n"}); !errors.Is(err, ErrUnsupported) {
			t.Errorf("combinational upload, submission %d: %v, want ErrUnsupported", i, err)
		}
	}
	if n := memoized(); n != before {
		t.Errorf("rejected uploads grew the memo from %d to %d texts", before, n)
	}

	// A memo hit that misses the store parses when its job runs.
	req := Request{Bench: benchBase, Name: "memo", Config: fastCfg()}
	req.Config.Seed = 5
	r := resolveMemo(req)
	j, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if state, _, _ := j.Snapshot(); state != StateDone || j.Name != "memo" || j.Key != r.key {
		t.Fatalf("memo-keyed job: state %s, name %q, key %s", state, j.Name, j.Key)
	}
	direct, err := bench.ParseString("memo", benchBase)
	if err != nil {
		t.Fatal(err)
	}
	run, err := workload.RunCircuit(direct, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeRun(run)
	if err != nil {
		t.Fatal(err)
	}
	got := j.Artifacts()
	if len(got.Files) != len(want.Files) {
		t.Errorf("memo-keyed job stored %d files, a direct run makes %d", len(got.Files), len(want.Files))
	}
	for name, data := range want.Files {
		if string(got.Files[name]) != string(data) {
			t.Errorf("memo-keyed job's %s differs from a direct run's", name)
		}
	}

	// Past the cap the memo is cleared and refilled; keys stay right.
	base := parsed(Request{Bench: benchBase, Config: fastCfg()})
	variant := func(i int) Request {
		return Request{Bench: fmt.Sprintf("%s# variant %d\n", benchBase, i), Config: fastCfg()}
	}
	for i := 0; i <= maxUploadMemo; i++ {
		r, err := q.resolve(variant(i))
		if err != nil {
			t.Fatal(err)
		}
		if r.key != base {
			t.Fatalf("variant %d keyed %s, want %s", i, r.key, base)
		}
	}
	if n := memoized(); n > maxUploadMemo {
		t.Errorf("memo holds %d texts, cap %d", n, maxUploadMemo)
	}
	if r := resolveMemo(variant(maxUploadMemo)); r.key != base {
		t.Errorf("last variant keyed %s from the memo, want %s", r.key, base)
	}
	r, err = q.resolve(variant(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.key != base {
		t.Errorf("first variant keyed %s after the memo was cleared, want %s", r.key, base)
	}
}

// TestSingleFlight is the concurrent duplicate-submission arm: many
// goroutines submit the identical request; with a store present there
// is no window in which the pipeline can run twice (the in-flight map
// covers the run, the store covers everything after), so exactly one
// computation must happen.
func TestSingleFlight(t *testing.T) {
	store, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := newTestQueue(t, store, Options{Workers: 2, MaxPending: 4})

	const n = 8
	jobsCh := make(chan *Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := q.Submit(Request{Bench: benchBase, Config: fastCfg()})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			if err := j.Wait(context.Background()); err != nil {
				t.Errorf("Wait: %v", err)
			}
			jobsCh <- j
		}()
	}
	wg.Wait()
	close(jobsCh)

	var first *Artifacts
	for j := range jobsCh {
		a := j.Artifacts()
		if a == nil {
			t.Fatal("completed job has no artifacts")
		}
		if first == nil {
			first = a
			continue
		}
		if len(a.Files) != len(first.Files) {
			t.Fatalf("bundle shapes differ: %d vs %d files", len(a.Files), len(first.Files))
		}
		for name, data := range first.Files {
			if string(a.Files[name]) != string(data) {
				t.Errorf("file %s differs between duplicate submissions", name)
			}
		}
	}

	m := q.Metrics()
	if m.Computations != 1 {
		t.Errorf("pipeline ran %d times for %d identical submissions", m.Computations, n)
	}
	if m.Submitted != n {
		t.Errorf("submitted = %d, want %d", m.Submitted, n)
	}
	if m.Deduped+m.CacheHits != n-1 {
		t.Errorf("deduped %d + cache hits %d != %d", m.Deduped, m.CacheHits, n-1)
	}
}

// TestQueueFull fills the pending buffer with distinct jobs and checks
// the overflow submission is rejected with ErrQueueFull.
func TestQueueFull(t *testing.T) {
	q := newTestQueue(t, nil, Options{Workers: 1, MaxPending: 1})
	cfg := fastCfg()
	var accepted []*Job
	sawFull := false
	// Distinct seeds give distinct keys; with one worker and one pending
	// slot, at most 1 (running) + 1 (pending) are in the system at once,
	// so by the 4th rapid submission the queue must have been full at
	// least once.
	for i := 0; i < 6; i++ {
		c := cfg
		c.Seed = int64(i + 1)
		j, err := q.Submit(Request{Bench: benchBase, Config: c})
		switch {
		case err == nil:
			accepted = append(accepted, j)
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		default:
			t.Fatalf("Submit: %v", err)
		}
	}
	if !sawFull {
		t.Skip("worker drained faster than submissions; queue never filled")
	}
	for _, j := range accepted {
		if err := j.Wait(context.Background()); err != nil {
			t.Errorf("accepted job failed: %v", err)
		}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	q := NewQueue(nil, Options{Workers: 1})
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Request{Bench: benchBase, Config: fastCfg()}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: %v, want ErrClosed", err)
	}
}

// TestCloseDrains submits work and closes: Close must not return until
// the in-flight job completed.
func TestCloseDrains(t *testing.T) {
	q := NewQueue(nil, Options{Workers: 1})
	j, err := q.Submit(Request{Bench: benchBase, Config: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	default:
		t.Error("Close returned before the in-flight job finished")
	}
	if state, _, err := j.Snapshot(); state != StateDone || err != nil {
		t.Errorf("drained job: state=%s err=%v", state, err)
	}
}

// TestJobFollowRacesFinish subscribes while the job emits its last
// phases and finishes: every follower must read the whole phase list in
// order and then see the channel close, and no send may hit a closed
// channel. Run it under -race.
func TestJobFollowRacesFinish(t *testing.T) {
	phases := []string{"atpg", "t0", "proposed"}
	for it := 0; it < 500; it++ {
		j := &Job{ID: "j", state: StateRunning, done: make(chan struct{})}
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, p := range phases {
				j.emit(p)
			}
			j.finish(StateDone, nil, nil)
		}()
		got := make([][]string, 4)
		for f := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				ch, cancel := j.Follow()
				defer cancel()
				for p := range ch {
					got[f] = append(got[f], p)
				}
			}()
		}
		close(start)
		wg.Wait()
		for f, g := range got {
			if len(g) != len(phases) {
				t.Fatalf("iteration %d follower %d: phases = %v, want %v", it, f, g, phases)
			}
			for i := range phases {
				if g[i] != phases[i] {
					t.Fatalf("iteration %d follower %d: phases = %v, want %v", it, f, g, phases)
				}
			}
		}
	}
}

// TestJobFollowReplaysBacklog subscribes after completion: the follower
// must still see every phase, then the channel must close.
func TestJobFollowReplaysBacklog(t *testing.T) {
	q := newTestQueue(t, nil, Options{Workers: 1})
	j, err := q.Submit(Request{Bench: benchBase, Config: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	ch, cancel := j.Follow()
	defer cancel()
	var phases []string
	for p := range ch {
		phases = append(phases, p)
	}
	want := []string{"atpg", "t0", "proposed"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
}
