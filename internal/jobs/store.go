package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Store is the content-addressed artifact cache: one directory per
// artifact key under objects/<key[:2]>/<key>/, plus an index.json that
// records recency (a monotonic access sequence) and sizes. A byte
// budget bounds the total payload; when a Put would exceed it, the
// least-recently-used bundles are evicted until the new one fits.
//
// All methods are safe for concurrent use.
type Store struct {
	dir    string
	budget int64 // <= 0 means unlimited

	mu      sync.Mutex
	seq     int64
	entries map[string]*storeEntry

	hits, misses, puts, evictions int64
}

type storeEntry struct {
	Seq  int64 `json:"seq"`
	Size int64 `json:"size"`
}

type storeIndex struct {
	Seq     int64                  `json:"seq"`
	Entries map[string]*storeEntry `json:"entries"`
}

// StoreStats is a snapshot of the store's counters.
type StoreStats struct {
	Objects   int
	Bytes     int64
	Hits      int64
	Misses    int64
	Puts      int64
	Evictions int64
}

// OpenStore opens (creating if needed) an artifact store rooted at dir
// with the given byte budget (<= 0 for unlimited). An existing
// index.json restores recency order across restarts; if it is missing
// or stale the objects directory is rescanned and recency reset.
func OpenStore(dir string, budget int64) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("jobs: open store: %v", err)
	}
	s := &Store{dir: dir, budget: budget, entries: map[string]*storeEntry{}}
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

func (s *Store) objectDir(key Key) string {
	k := key.String()
	return filepath.Join(s.dir, "objects", k[:2], k)
}

func (s *Store) loadIndex() error {
	data, err := os.ReadFile(s.indexPath())
	if err == nil {
		var idx storeIndex
		if json.Unmarshal(data, &idx) == nil && idx.Entries != nil {
			// Keep only entries whose object directory still exists.
			for k, e := range idx.Entries {
				key, kerr := ParseKey(k)
				if kerr != nil {
					continue
				}
				if st, serr := os.Stat(s.objectDir(key)); serr == nil && st.IsDir() {
					s.entries[k] = e
					if e.Seq > s.seq {
						s.seq = e.Seq
					}
				}
			}
			return nil
		}
	}
	// No usable index: rescan objects/ and assign fresh recency in
	// sorted-key order (deterministic, if arbitrary).
	shards, err := os.ReadDir(filepath.Join(s.dir, "objects"))
	if err != nil {
		return fmt.Errorf("jobs: scan store: %v", err)
	}
	var keys []string
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		objs, err := os.ReadDir(filepath.Join(s.dir, "objects", shard.Name()))
		if err != nil {
			continue
		}
		for _, o := range objs {
			if o.IsDir() {
				keys = append(keys, o.Name())
			}
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		key, kerr := ParseKey(k)
		if kerr != nil {
			continue
		}
		size, err := dirSize(s.objectDir(key))
		if err != nil {
			continue
		}
		s.seq++
		s.entries[k] = &storeEntry{Seq: s.seq, Size: size}
	}
	return s.saveIndexLocked()
}

func dirSize(dir string) (int64, error) {
	var n int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// saveIndexLocked persists the index; callers hold s.mu (or are still
// single-threaded in OpenStore).
func (s *Store) saveIndexLocked() error {
	idx := storeIndex{Seq: s.seq, Entries: s.entries}
	data, err := json.MarshalIndent(&idx, "", "  ")
	if err != nil {
		return err
	}
	tmp := s.indexPath() + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.indexPath())
}

// Get returns the bundle for key, or (nil, false) on a miss. A hit
// refreshes the key's recency.
//
// The bundle is read after s.mu is released, so an eviction or a Put
// replacing the same key can remove the directory in between. A bundle
// that vanished that way is a miss, not an error.
func (s *Store) Get(key Key) (*Artifacts, bool, error) {
	k := key.String()
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false, nil
	}
	s.seq++
	e.Seq = s.seq
	seq := s.seq
	s.hits++
	saveErr := s.saveIndexLocked()
	s.mu.Unlock()
	if saveErr != nil {
		return nil, false, fmt.Errorf("jobs: store index: %v", saveErr)
	}

	a, err := readBundle(s.objectDir(key))
	if errors.Is(err, fs.ErrNotExist) {
		s.vanished(k, seq)
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("jobs: read bundle %s: %v", k, err)
	}
	return a, true, nil
}

// vanished turns the hit Get counted for k into a miss. The index entry
// is dropped only if its recency is still seq, the value that Get set:
// otherwise a Put has re-stored the key since, and its entry stands.
func (s *Store) vanished(k string, seq int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits--
	s.misses++
	if e, ok := s.entries[k]; ok && e.Seq == seq {
		delete(s.entries, k)
		_ = s.saveIndexLocked() // best effort: loadIndex skips missing objects
	}
}

func readBundle(dir string) (*Artifacts, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	a := &Artifacts{Files: map[string][]byte{}}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		a.Files[ent.Name()] = data
	}
	return a, nil
}

// Contains reports whether key is cached, without touching recency.
func (s *Store) Contains(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key.String()]
	return ok
}

// Put stores a bundle under key, evicting least-recently-used bundles
// if the byte budget would be exceeded. Storing an existing key
// replaces the bundle (the bytes are identical by construction, so this
// is a recency refresh in practice). A bundle larger than the whole
// budget is not stored at all — the store never evicts everything else
// just to fail anyway.
func (s *Store) Put(key Key, a *Artifacts) error {
	size := a.Size()
	if s.budget > 0 && size > s.budget {
		return nil // over-budget bundle: serve from memory, don't cache
	}
	dir := s.objectDir(key)
	tmp := dir + ".tmp"
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return fmt.Errorf("jobs: store put: %v", err)
	}
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("jobs: store put: %v", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("jobs: store put: %v", err)
	}
	for name, data := range a.Files {
		if err := os.WriteFile(filepath.Join(tmp, name), data, 0o644); err != nil {
			return fmt.Errorf("jobs: store put: %v", err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	k := key.String()
	delete(s.entries, k) // replacing an existing key drops its old accounting
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("jobs: store put: %v", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return fmt.Errorf("jobs: store put: %v", err)
	}
	s.seq++
	s.entries[k] = &storeEntry{Seq: s.seq, Size: size}
	s.puts++
	if s.budget > 0 {
		s.evictLocked()
	}
	if err := s.saveIndexLocked(); err != nil {
		return fmt.Errorf("jobs: store index: %v", err)
	}
	return nil
}

// evictLocked removes lowest-seq entries until total size fits the
// budget. Callers hold s.mu.
func (s *Store) evictLocked() {
	var total int64
	for _, e := range s.entries {
		total += e.Size
	}
	for total > s.budget {
		victim := ""
		var vseq int64
		for k, e := range s.entries {
			if victim == "" || e.Seq < vseq {
				victim, vseq = k, e.Seq
			}
		}
		if victim == "" {
			return
		}
		key, err := ParseKey(victim)
		if err == nil {
			os.RemoveAll(s.objectDir(key))
		}
		total -= s.entries[victim].Size
		delete(s.entries, victim)
		s.evictions++
	}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Objects:   len(s.entries),
		Hits:      s.hits,
		Misses:    s.misses,
		Puts:      s.puts,
		Evictions: s.evictions,
	}
	for _, e := range s.entries {
		st.Bytes += e.Size
	}
	return st
}
