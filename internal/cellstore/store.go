package cellstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"smtsim"
)

// prefixLen is the shard fan-out: cells land in shards/<hash[:2]>.jsonl.
const prefixLen = 2

// manifest is the store's self-description, written atomically at
// creation. A schema mismatch on open is a hard error: a store written
// under one schema can never serve cells to another.
type manifest struct {
	Schema    int    `json:"schema"`
	PrefixLen int    `json:"prefix_len"`
	CreatedAt string `json:"created_at"`
}

// record is one persisted cell: its hash, the full spec (so the store
// is self-describing and auditable), and the result.
type record struct {
	Hash   string        `json:"hash"`
	Spec   Spec          `json:"spec"`
	Result smtsim.Result `json:"result"`
}

// Stats counts store traffic since open. Values only grow.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	TornTails int64 `json:"torn_tails"`
	// Corrupt counts complete shard lines Open dropped: lines that do
	// not parse, or whose stored hash is not the hash of their spec.
	Corrupt int64 `json:"corrupt"`
}

// Store is an on-disk, content-addressed cell result store, safe for
// concurrent use within one process.
//
// One process writes a store directory at a time. Open reads every
// shard into the index, and from then on the index is authoritative:
// Get is a map lookup and never goes back to disk. A second process
// over the same directory still gets correct results — puts are
// idempotent and cells deterministic — but it duplicates work and sees
// the first process's cells only after it reopens. Nothing enforces
// the rule with a lock file, because reopening a directory inside the
// process that already holds it open is legitimate (a read-only probe
// of a populated store does exactly that).
type Store struct {
	dir string

	mu sync.Mutex
	//smt:guarded-by(mu)
	index map[string]record
	//smt:guarded-by(mu)
	stats Stats
}

// Open opens (creating if necessary) the store rooted at dir, verifies
// its manifest, and indexes every shard, repairing what a crash or a
// damaged disk left behind (see recoverShard). Cells lost to a repair
// simply miss and re-simulate.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "shards"), 0o755); err != nil {
		return nil, fmt.Errorf("cellstore: %w", err)
	}
	s := &Store{dir: dir, index: make(map[string]record)}
	if err := s.checkManifest(); err != nil {
		return nil, err
	}
	shards, err := filepath.Glob(filepath.Join(dir, "shards", "*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("cellstore: %w", err)
	}
	for _, path := range shards {
		if err := s.recoverShard(path); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Dir returns the store's root directory (the daemon parks its queue
// checkpoint next to the shards).
func (s *Store) Dir() string { return s.dir }

func (s *Store) checkManifest() error {
	path := filepath.Join(s.dir, "MANIFEST.json")
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		m := manifest{Schema: SchemaVersion, PrefixLen: prefixLen, CreatedAt: time.Now().UTC().Format(time.RFC3339)}
		mb, _ := json.MarshalIndent(m, "", "  ")
		return AtomicWrite(path, append(mb, '\n'))
	}
	if err != nil {
		return fmt.Errorf("cellstore: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("cellstore: corrupt manifest %s: %w", path, err)
	}
	if m.Schema != SchemaVersion || m.PrefixLen != prefixLen {
		return fmt.Errorf("cellstore: store %s has schema v%d/prefix %d, this build wants v%d/prefix %d: point at a fresh directory (old caches must never serve a new schema)",
			s.dir, m.Schema, m.PrefixLen, SchemaVersion, prefixLen)
	}
	return nil
}

// recoverShard indexes one shard file. Two kinds of damage are
// repaired by rewriting the shard without them through an atomic
// rename:
//   - a torn tail, an unterminated final line: the signature of a
//     writer killed mid-append, counted in Stats.TornTails;
//   - a corrupt line, a complete line that is not a record or whose
//     stored hash is not the hash of its spec, counted in Stats.Corrupt.
//
// Every other record survives, wherever the damage sits in the file.
func (s *Store) recoverShard(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("cellstore: %w", err)
	}
	recs, clean, corrupt, torn := scanRecords(b)
	if len(clean) < len(b) {
		if err := AtomicWrite(path, clean); err != nil {
			return fmt.Errorf("cellstore: repairing %s: %w", path, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if torn {
		s.stats.TornTails++
	}
	s.stats.Corrupt += corrupt
	for _, r := range recs {
		s.index[r.Hash] = r
	}
	return nil
}

// scanRecords parses the newline-terminated records of a shard. It
// returns the good records, the shard's bytes without its corrupt lines
// and torn tail, the number of corrupt lines, and whether b ends in an
// unterminated line. A record is good when it parses and its stored
// hash is the hash of its stored spec, so a damaged hash can never
// serve a result under another cell's key.
func scanRecords(b []byte) (recs []record, clean []byte, corrupt int64, torn bool) {
	dirty := false // clean is a copy holding only the good lines so far
	off := 0
	for off < len(b) {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			torn = true
			break
		}
		line := b[off : off+nl+1]
		var r record
		if err := json.Unmarshal(line, &r); err == nil && r.Hash == r.Spec.Key() {
			recs = append(recs, r)
			if dirty {
				clean = append(clean, line...)
			}
		} else {
			corrupt++
			if !dirty {
				clean, dirty = append([]byte(nil), b[:off]...), true
			}
		}
		off += len(line)
	}
	if !dirty {
		clean = b[:off]
	}
	return recs, clean, corrupt, torn
}

func (s *Store) shardPath(hash string) (string, error) {
	if len(hash) < prefixLen {
		return "", fmt.Errorf("cellstore: malformed hash %q", hash)
	}
	return filepath.Join(s.dir, "shards", hash[:prefixLen]+".jsonl"), nil
}

// Get returns the stored result for a cell hash. It is a lookup in the
// index Open built, which is authoritative for a single-writer store;
// the error result is always nil.
func (s *Store) Get(hash string) (smtsim.Result, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.index[hash]
	if !ok {
		s.stats.Misses++
		return smtsim.Result{}, false, nil
	}
	s.stats.Hits++
	return r.Result, true, nil
}

// Put persists one cell result. The record is appended to its shard as
// a single write; a crash mid-append leaves a torn tail the next Open
// recovers. Re-putting an existing hash is idempotent (cells are
// deterministic, so any two writers wrote the same result).
func (s *Store) Put(spec Spec, res smtsim.Result) (string, error) {
	hash := spec.Key()
	line, err := json.Marshal(record{Hash: hash, Spec: spec.Canonical(), Result: res})
	if err != nil {
		return "", fmt.Errorf("cellstore: %w", err)
	}
	line = append(line, '\n')
	path, err := s.shardPath(hash)
	if err != nil {
		return "", err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[hash]; ok {
		return hash, nil
	}
	if err := appendShard(path, line); err != nil {
		return "", fmt.Errorf("cellstore: %w", err)
	}
	s.index[hash] = record{Hash: hash, Spec: spec.Canonical(), Result: res}
	s.stats.Puts++
	return hash, nil
}

// Len returns the number of cells currently indexed.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// StatsSnapshot returns a copy of the traffic counters.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// AtomicWrite writes data to path through a same-directory temp file
// and rename, so readers observe either the old content or the new,
// never a partial write. It is one of the two blessed
// crash-consistency helpers (policy.AtomicFSAllowed): all service-layer
// durable writes other than shard appends route through it, and the
// atomicfs analyzer enforces that.
func AtomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	_, werr := w.Write(data)
	ferr := w.Flush()
	cerr := tmp.Close()
	if err := errors.Join(werr, ferr, cerr); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// appendShard appends one pre-terminated record line to a shard file as
// a single write. A crash mid-append leaves a torn tail that the next
// Open truncates away — the append-only protocol's recovery unit is one
// record. Blessed helper (policy.AtomicFSAllowed).
func appendShard(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(line)
	cerr := f.Close()
	return errors.Join(werr, cerr)
}
