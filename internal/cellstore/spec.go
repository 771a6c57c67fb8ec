// Package cellstore is the content-addressed result store behind the
// sweep service: every simulation cell is keyed by a stable hash of its
// complete input description, and results persist on disk so repeated
// figure and report requests become cache hits instead of simulations.
//
// The store is deliberately boring: JSON-lines shard files (one per
// hash prefix), a manifest written by atomic rename, and repair of torn
// tails and corrupt records on open. One process writes a store at a
// time; after Open its in-memory index answers every lookup.
package cellstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"smtsim"
)

// SchemaVersion identifies the cell hashing and result schema. It is
// part of every content hash: bump it whenever the meaning of a Spec
// field, the canonicalization rules, the simulator's statistics, or
// anything else that could change a cell's result drifts — old caches
// then miss instead of silently serving stale results. The golden hash
// test (internal/sweep) fails loudly when hashes move without a bump.
const SchemaVersion = 1

// Spec describes one simulation cell completely: everything that
// determines its Result is a field here, and nothing else is. The JSON
// encoding of the canonicalized Spec is the hash preimage, so field
// order, names, and omitempty rules are part of the schema — changing
// any of them requires a SchemaVersion bump.
type Spec struct {
	// Benchmarks names the workload of each hardware thread, in thread
	// order (order matters: it selects per-thread seeds).
	Benchmarks []string `json:"benchmarks"`
	// Scheduler is the canonical scheduler name (smtsim.Scheduler.String).
	Scheduler string `json:"scheduler"`
	// IQSize is the shared issue-queue capacity.
	IQSize int `json:"iq_size"`
	// FetchGate is the fetch-gating policy ("" = none).
	FetchGate string `json:"fetch_gate,omitempty"`
	// MemoryLatency overrides the main-memory latency (0 = Table 1's).
	MemoryLatency int `json:"memory_latency,omitempty"`
	// Budget is the measured per-run instruction budget.
	Budget uint64 `json:"budget"`
	// Warmup is the pre-measurement instruction budget.
	Warmup uint64 `json:"warmup"`
	// Seed is the workload seed as passed to smtsim.Config.
	Seed uint64 `json:"seed"`
}

// Canonical returns the spec with presentation aliases normalized: the
// "none" fetch gate becomes the empty string and the benchmark list is
// copied non-nil. Two specs that simulate identically canonicalize
// identically, so they share a hash.
func (s Spec) Canonical() Spec {
	s = s.aliasFree()
	s.Benchmarks = append([]string{}, s.Benchmarks...)
	return s
}

// aliasFree is Canonical without the copy of the benchmark list: it
// encodes to the same JSON, so Key, which only reads the list, hashes it.
func (s Spec) aliasFree() Spec {
	if s.FetchGate == "none" {
		s.FetchGate = ""
	}
	if s.Benchmarks == nil {
		s.Benchmarks = []string{} // encodes as [], not null
	}
	return s
}

// Validate rejects specs that could not have come from the sweep
// harness; the daemon calls it on every submitted cell.
func (s Spec) Validate() error {
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("cellstore: spec has no benchmarks")
	}
	if _, err := smtsim.ParseScheduler(s.Scheduler); err != nil {
		return fmt.Errorf("cellstore: %w", err)
	}
	if s.IQSize < 1 {
		return fmt.Errorf("cellstore: non-positive IQ size %d", s.IQSize)
	}
	if s.Budget < 1 {
		return fmt.Errorf("cellstore: non-positive budget")
	}
	return nil
}

// Config converts the spec to the simulator configuration it denotes.
// Both the in-process sweep path and the daemon's workers build their
// Config through here, so the two are identical by construction.
func (s Spec) Config() (smtsim.Config, error) {
	sched, err := smtsim.ParseScheduler(s.Scheduler)
	if err != nil {
		return smtsim.Config{}, err
	}
	gate := s.FetchGate
	if gate == "none" {
		gate = ""
	}
	return smtsim.Config{
		Benchmarks:         append([]string(nil), s.Benchmarks...),
		IQSize:             s.IQSize,
		Scheduler:          sched,
		FetchGate:          gate,
		MemoryLatency:      s.MemoryLatency,
		MaxInstructions:    s.Budget,
		WarmupInstructions: s.Warmup,
		Seed:               s.Seed,
	}, nil
}

// keyPrefix is the versioned domain prefix of every hash preimage.
var keyPrefix = fmt.Sprintf("smtsim-cell-v%d\n", SchemaVersion)

// Key returns the cell's content hash: the hex SHA-256 of a versioned
// preimage over the canonicalized spec's JSON encoding. The hash is the
// cell's identity everywhere — store shards, HTTP routes.
func (s Spec) Key() string {
	b, err := json.Marshal(s.aliasFree())
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on one. Keep the
		// invariant loud rather than returning a colliding key.
		panic(fmt.Sprintf("cellstore: marshal spec: %v", err))
	}
	var pre [256]byte
	sum := sha256.Sum256(append(append(pre[:0], keyPrefix...), b...))
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}
