package jobs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Store is the content-addressed artifact cache: one directory per
// artifact key under objects/<key[:2]>/<key>/. The directories are the
// store's only record. OpenStore rescans them, taking each bundle's
// size from its files and its recency from the directory's
// modification time, which Put sets by creating the directory and every
// hit refreshes. A byte budget bounds the total payload; when a Put
// would exceed it, the least-recently-used bundles are evicted until
// the new one fits.
//
// A bundle stays resident in memory once it has been put or read, so
// every hit of a key returns the same *Artifacts. Resident bytes are the
// entries' sizes, so the byte budget bounds them as it bounds the disk.
//
// All methods are safe for concurrent use.
type Store struct {
	dir    string
	budget int64 // <= 0 means unlimited

	mu      sync.Mutex
	entries map[string]*storeEntry

	hits, misses, puts, evictions int64
}

// storeEntry is one bundle's accounting and its resident copy. used
// carries no monotonic reading, so it compares consistently with
// modification times. bundle is nil for an entry OpenStore found on disk
// until its first hit reads it.
type storeEntry struct {
	size   int64
	used   time.Time
	bundle *Artifacts
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
// with the given byte budget (<= 0 for unlimited). It scans objects/,
// so a bundle a crashed process renamed into place is served like any
// other, and evicts to the budget. It deletes the index.json that older
// versions kept, whose recency would go stale as this one serves hits.
func OpenStore(dir string, budget int64) (*Store, error) {
	objects := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objects, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: open store: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("jobs: open store: %v", err)
	}
	s := &Store{dir: dir, budget: budget, entries: map[string]*storeEntry{}}
	shards, err := os.ReadDir(objects)
	if err != nil {
		return nil, fmt.Errorf("jobs: scan store: %v", err)
	}
	for _, shard := range shards {
		objs, err := os.ReadDir(filepath.Join(objects, shard.Name()))
		if err != nil {
			continue
		}
		for _, o := range objs {
			k := o.Name()
			if _, err := ParseKey(k); err != nil || !o.IsDir() || k[:2] != shard.Name() {
				continue // not a bundle, e.g. the <key>.tmp of a Put in progress
			}
			info, ierr := o.Info()
			size, serr := dirSize(filepath.Join(objects, shard.Name(), k))
			if ierr == nil && serr == nil {
				s.entries[k] = &storeEntry{size: size, used: info.ModTime()}
			}
		}
	}
	s.evictLocked()
	return s, nil
}

func (s *Store) objectDir(key Key) string {
	k := key.String()
	return filepath.Join(s.dir, "objects", k[:2], k)
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

// Get returns the bundle for key, or (nil, false) on a miss. The
// bundle is shared by every hit of key and must not be modified. A hit
// refreshes the key's recency, and mirrors it on the bundle directory's
// modification time for the next OpenStore. That refresh is also the
// hit's existence check: a bundle whose directory was removed behind
// the store's back is a miss, not an error, and its entry is dropped.
//
// An entry OpenStore found on disk is read on its first hit, under s.mu,
// so no Put or eviction in this process can empty the directory during
// the read; later hits share what it read.
func (s *Store) Get(key Key) (*Artifacts, bool, error) {
	k := key.String()
	dir := s.objectDir(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		s.misses++
		return nil, false, nil
	}
	used := time.Now().Round(0)
	err := os.Chtimes(dir, used, used) // any failure but a missing directory loses only the recency mirror
	if e.bundle == nil && !errors.Is(err, fs.ErrNotExist) {
		e.bundle, err = readBundle(dir)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, false, fmt.Errorf("jobs: read bundle %s: %v", k, err)
		}
	}
	if errors.Is(err, fs.ErrNotExist) {
		delete(s.entries, k)
		s.misses++
		return nil, false, nil
	}
	e.used = used
	s.hits++
	return e.bundle, true, nil
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

// Put stores a bundle under key, evicting least-recently-used bundles
// if the byte budget would be exceeded. Storing an existing key
// replaces the bundle (the bytes are identical by construction, so this
// is a recency refresh in practice). A bundle larger than the whole
// budget is not stored at all — the store never evicts everything else
// just to fail anyway. The bundle is written to <key>.tmp and renamed
// into place, so its directory's modification time is the time of the
// Put. A stored bundle stays resident and is what later hits of key
// return: the store takes ownership of a, and no one may modify it
// after the call.
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
	s.entries[k] = &storeEntry{size: size, used: time.Now().Round(0), bundle: a}
	s.puts++
	s.evictLocked()
	return nil
}

// evictLocked removes the least recently used entries, ties broken by
// key, until the total size fits the budget. Callers hold s.mu (or are
// still single-threaded in OpenStore).
func (s *Store) evictLocked() {
	if s.budget <= 0 {
		return
	}
	var total int64
	for _, e := range s.entries {
		total += e.size
	}
	for total > s.budget {
		var victim string
		var ve *storeEntry
		for k, e := range s.entries {
			if ve == nil || e.used.Before(ve.used) || e.used.Equal(ve.used) && k < victim {
				victim, ve = k, e
			}
		}
		if key, err := ParseKey(victim); err == nil {
			_ = os.RemoveAll(s.objectDir(key)) // what it leaves, the next OpenStore finds and evicts
		}
		total -= ve.size
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
		st.Bytes += e.size
	}
	return st
}
