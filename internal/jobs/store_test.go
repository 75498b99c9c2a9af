package jobs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// testKey fabricates a distinct, well-formed key per index.
func testKey(i int) Key {
	return Key{
		Circuit: fmt.Sprintf("%064x", i+1),
		Config:  fmt.Sprintf("%032x", 0xabc),
	}
}

// Contains reports whether key is cached, without touching recency. Only
// tests read membership, so the method lives in a test file.
func (s *Store) Contains(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key.String()]
	return ok
}

// bundle fabricates an artifact bundle of exactly n bytes.
func bundle(n int) *Artifacts {
	return &Artifacts{Files: map[string][]byte{
		"payload.txt": bytes.Repeat([]byte("x"), n),
	}}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := &Artifacts{Files: map[string][]byte{
		"summary.json": []byte(`{"v":1}`),
		"t0.txt":       []byte("0101\n"),
	}}
	k := testKey(0)
	if err := s.Put(k, a); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if len(got.Files) != 2 || !bytes.Equal(got.Files["t0.txt"], a.Files["t0.txt"]) {
		t.Errorf("round trip mismatch: %v", got.Files)
	}
	if _, ok, _ := s.Get(testKey(99)); ok {
		t.Error("Get of absent key reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Objects != 1 {
		t.Errorf("stats: %+v", st)
	}
	// The object directories are the store's only record.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		name := e.Type().String()[:1] + " " + e.Name()
		if e.IsDir() {
			name += "/"
		}
		names = append(names, name)
	}
	if len(names) != 1 || names[0] != "d objects/" {
		t.Errorf("store directory holds more than objects/: %v", names)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 100)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1, k2 := testKey(0), testKey(1), testKey(2)
	if err := s.Put(k0, bundle(40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k1, bundle(40)); err != nil {
		t.Fatal(err)
	}
	// Touch k0 so k1 becomes the least recently used.
	if _, ok, err := s.Get(k0); !ok || err != nil {
		t.Fatalf("Get k0: ok=%v err=%v", ok, err)
	}
	// A third 40-byte bundle exceeds the 100-byte budget: k1 must go.
	if err := s.Put(k2, bundle(40)); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(k0) || s.Contains(k1) || !s.Contains(k2) {
		t.Errorf("after eviction: k0=%v k1=%v k2=%v (want true,false,true)",
			s.Contains(k0), s.Contains(k1), s.Contains(k2))
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes != 80 {
		t.Errorf("stats after eviction: %+v", st)
	}
}

// TestStoreConcurrentHits refreshes recency from several goroutines at
// once while each also stores a key of its own; run it under -race.
func TestStoreConcurrentHits(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(testKey(i), bundle(40)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := s.Put(testKey(4+g), bundle(40)); err != nil {
				t.Error(err)
			}
			for i := 0; i < 20; i++ {
				if a, ok, err := s.Get(testKey(i % 4)); err != nil || !ok || len(a.Files["payload.txt"]) != 40 {
					t.Errorf("goroutine %d: Get key %d: ok=%v err=%v", g, i%4, ok, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Objects != 8 || st.Hits != 80 || st.Misses != 0 {
		t.Errorf("stats after concurrent hits: %+v", st)
	}
}

func TestStoreRejectsOverBudgetBundle(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(0), bundle(40)); err != nil {
		t.Fatal(err)
	}
	// A bundle larger than the whole budget is not cached — and must not
	// evict everything else on its way to failing.
	if err := s.Put(testKey(1), bundle(500)); err != nil {
		t.Fatal(err)
	}
	if s.Contains(testKey(1)) {
		t.Error("over-budget bundle was cached")
	}
	if !s.Contains(testKey(0)) {
		t.Error("over-budget Put evicted an unrelated bundle")
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1 := testKey(0), testKey(1)
	if err := s.Put(k0, bundle(40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k1, bundle(40)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(k0); !ok { // k1 is now LRU
		t.Fatal("Get k0 missed")
	}

	// Reopen: contents and recency order must survive.
	s2, err := OpenStore(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Contains(k0) || !s2.Contains(k1) {
		t.Fatal("bundles lost across reopen")
	}
	if err := s2.Put(testKey(2), bundle(40)); err != nil {
		t.Fatal(err)
	}
	if !s2.Contains(k0) || s2.Contains(k1) {
		t.Errorf("recency lost across reopen: k0=%v k1=%v (want true,false)",
			s2.Contains(k0), s2.Contains(k1))
	}
}

// TestStoreReopensAfterCrash reopens a store that a crashed process
// left behind: a bundle renamed into place that the process never
// recorded, the staging directory of an unfinished Put, and an
// index.json from an older version of the store that lists only the
// first bundle. The reopened store serves the unrecorded bundle, skips
// the staging directory, deletes the index and evicts to its budget.
func TestStoreReopensAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1, k2, k3 := testKey(0), testKey(1), testKey(2), testKey(3)
	for _, k := range []Key{k0, k1} {
		if err := s.Put(k, bundle(40)); err != nil {
			t.Fatal(err)
		}
	}
	writeBundle := func(dir string) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "payload.txt"), bytes.Repeat([]byte("x"), 40), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeBundle(s.objectDir(k2))          // crash after Put's rename
	writeBundle(s.objectDir(k3) + ".tmp") // crash before it
	index := filepath.Join(dir, "index.json")
	stale := fmt.Sprintf(`{"seq":1,"entries":{%q:{"seq":1,"size":40}}}`, k0.String())
	if err := os.WriteFile(index, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(index); err == nil {
		t.Error("stale index.json survived the reopen")
	}
	if got, ok, err := s2.Get(k2); err != nil || !ok || len(got.Files["payload.txt"]) != 40 {
		t.Errorf("unrecorded bundle not served: ok=%v err=%v", ok, err)
	}
	if st := s2.Stats(); st.Bytes > 100 {
		t.Errorf("reopened store holds %d bytes over its 100-byte budget", st.Bytes)
	}
	if s2.Contains(k0) || !s2.Contains(k1) {
		t.Errorf("oldest bundle kept over budget: k0=%v k1=%v (want false,true)", s2.Contains(k0), s2.Contains(k1))
	}
	if _, ok, _ := s2.Get(k3); ok {
		t.Error("staging directory of an unfinished Put served as a bundle")
	}
}

// TestStoreGetVanishedBundle removes a stored bundle's directory behind
// the store's back, which is what a hit sees when it races an eviction
// or a Put of the same key. Get must report a plain miss and drop the
// entry, and the queue must recompute the bundle instead of failing the
// submission.
func TestStoreGetVanishedBundle(t *testing.T) {
	store, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(0)
	if err := store.Put(k, bundle(40)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(store.objectDir(k)); err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	if a, ok, err := store.Get(k); a != nil || ok || err != nil {
		t.Fatalf("Get of a vanished bundle: ok=%v err=%v, want a miss", ok, err)
	}
	after := store.Stats()
	if after.Objects != before.Objects-1 || after.Misses != before.Misses+1 || after.Hits != before.Hits {
		t.Errorf("stats: before %+v, after %+v; want one object fewer and one more miss", before, after)
	}

	q := newTestQueue(t, store, Options{Workers: 1})
	req := Request{Bench: benchBase, Config: fastCfg()}
	for round := 1; round <= 2; round++ {
		j, err := q.Submit(req)
		if err != nil {
			t.Fatalf("round %d: Submit: %v", round, err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatalf("round %d: Wait: %v", round, err)
		}
		if state, _, _ := j.Snapshot(); state != StateDone {
			t.Fatalf("round %d: job state %s, want %s", round, state, StateDone)
		}
		if m := q.Metrics(); m.Computations != int64(round) {
			t.Fatalf("round %d: %d computations", round, m.Computations)
		}
		if err := os.RemoveAll(store.objectDir(j.Key)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreHitSharesBundle: a stored bundle stays resident, so every hit
// of its key returns the one *Artifacts that was put. A reopened store
// reads a bundle from disk on its first hit, not before, and later hits
// share what that hit read. Every cached job of a key holds the same
// bundle.
func TestStoreHitSharesBundle(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(0)
	a := &Artifacts{Files: map[string][]byte{
		FileSummary: []byte(`{"v":1}`),
		FileT0:      []byte("0101\n"),
	}}
	if err := s.Put(k, a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, ok, err := s.Get(k)
		if err != nil || !ok || got != a {
			t.Fatalf("hit %d: ok=%v err=%v shared=%v, want the put bundle", i, ok, err, got == a)
		}
		if string(got.Files[FileT0]) != "0101\n" || string(got.Files[FileSummary]) != `{"v":1}` {
			t.Fatalf("hit %d: files %q", i, got.Files)
		}
	}

	// Same-length rewrites on disk show when the reopened store reads:
	// the first hit sees the file as it was then, and later hits keep it.
	s2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := filepath.Join(s2.objectDir(k), FileT0)
	if err := os.WriteFile(t0, []byte("1010\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	first, ok, err := s2.Get(k)
	if err != nil || !ok {
		t.Fatalf("first hit after reopen: ok=%v err=%v", ok, err)
	}
	if len(first.Files) != 2 || string(first.Files[FileT0]) != "1010\n" || string(first.Files[FileSummary]) != `{"v":1}` {
		t.Fatalf("first hit after reopen did not read the disk: %q", first.Files)
	}
	if err := os.WriteFile(t0, []byte("1111\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, ok, err := s2.Get(k); err != nil || !ok || got != first {
			t.Fatalf("hit %d after reopen: ok=%v err=%v shared=%v, want the first hit's bundle", i, ok, err, got == first)
		}
	}
	if st := s2.Stats(); st.Hits != 3 || st.Misses != 0 {
		t.Errorf("reopened store stats: %+v", st)
	}

	q := newTestQueue(t, s, Options{Workers: 1})
	req := Request{Bench: benchBase, Config: fastCfg()}
	res, err := q.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	b := bundle(40)
	if err := s.Put(res.key, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		j, err := q.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if state, _, _ := j.Snapshot(); state != StateCached || j.Artifacts() != b {
			t.Errorf("submission %d: state %s, shared=%v; want a cached job holding the put bundle", i, state, j.Artifacts() == b)
		}
	}
}

// TestStoreGetRacesPutAndEvict races hits of one key against re-Puts of
// that key and against Puts of other keys, which evict it now and then:
// the budget holds one bundle, so each Put evicts the other key stored.
// A hit must carry every file of the bundle with the bytes put, never a
// directory half emptied or half renamed. Run it under -race.
func TestStoreGetRacesPutAndEvict(t *testing.T) {
	const nfiles, fileSize = 11, 64
	files := map[string][]byte{}
	for i := 0; i < nfiles; i++ {
		files[fmt.Sprintf("f%02d.txt", i)] = bytes.Repeat([]byte{byte('a' + i)}, fileSize)
	}
	fresh := func() *Artifacts {
		a := &Artifacts{Files: map[string][]byte{}}
		for name, data := range files {
			a.Files[name] = append([]byte(nil), data...)
		}
		return a
	}
	s, err := OpenStore(t.TempDir(), nfiles*fileSize)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(0)
	if err := s.Put(k, fresh()); err != nil {
		t.Fatal(err)
	}

	var hits, misses atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, ok, err := s.Get(k)
				if err != nil {
					t.Errorf("reader %d: Get: %v", g, err)
					return
				}
				if !ok {
					misses.Add(1)
					continue
				}
				hits.Add(1)
				if len(a.Files) != nfiles {
					t.Errorf("reader %d: a hit carried %d of %d files", g, len(a.Files), nfiles)
					return
				}
				for name, data := range files {
					if !bytes.Equal(a.Files[name], data) {
						t.Errorf("reader %d: a hit carried %s as %q", g, name, a.Files[name])
						return
					}
				}
			}
		}(g)
	}
	var writers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < 300; i++ {
			if err := s.Put(k, fresh()); err != nil {
				t.Errorf("re-Put: %v", err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 300; i++ {
			if err := s.Put(testKey(1+i%3), fresh()); err != nil {
				t.Errorf("Put of another key: %v", err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if hits.Load() == 0 || s.Stats().Evictions == 0 {
		t.Errorf("%d hits, %d misses, %d evictions: the race was not exercised",
			hits.Load(), misses.Load(), s.Stats().Evictions)
	}
}
