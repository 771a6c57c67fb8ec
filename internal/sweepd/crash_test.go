package sweepd

// Crash and resume tests: the failure modes the shard protocol exists
// for. A worker process dying mid-cell must cost at most one
// re-simulation, never a wrong or missing result, and the recovered
// sweep must be byte-identical to an uninterrupted one.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"smtsim"
	"smtsim/internal/cellstore"
)

// aggregateJSON renders a result slice the way report code consumes it
// — marshaled JSON — so "byte-identical" below means what it says.
func aggregateJSON(t *testing.T, res []smtsim.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTornShardResimulated crashes a writer mid-append (simulated by
// truncating a shard record and appending garbage), reopens the store,
// and asserts the damaged cell re-simulates while intact cells still
// hit cache.
func TestTornShardResimulated(t *testing.T) {
	specs := testSpecs(4)
	dir := t.TempDir()

	// Populate the store through a first server run.
	store1, err := cellstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := New(Config{Store: store1, Workers: 2, Simulate: fakeSimulate})
	if err != nil {
		t.Fatal(err)
	}
	client1 := newClientFor(t, srv1)
	want, err := client1.RunCells(specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail of the victim cell's shard: keep the valid prefix,
	// then half a record — what a SIGKILL mid-write leaves behind.
	victim := specs[len(specs)-1]
	shard := filepath.Join(dir, "shards", victim.Key()[:2]+".jsonl")
	b, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard, append(b, []byte(`{"hash":"`+victim.Key()+`","spec":{"benchm`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	// Also tear the victim's own record off if it shares the shard with
	// nothing else; either way record how many cells survive on disk.
	store2, err := cellstore.Open(dir)
	if err != nil {
		t.Fatalf("reopening store with torn shard must not fail: %v", err)
	}
	if st := store2.StatsSnapshot(); st.TornTails != 1 {
		t.Errorf("TornTails = %d, want 1", st.TornTails)
	}
	missing := len(specs) - store2.Len()

	var sims atomic.Int64
	srv2, err := New(Config{Store: store2, Workers: 2,
		Simulate: func(s cellstore.Spec) (smtsim.Result, error) {
			sims.Add(1)
			return fakeSimulate(s)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown()
	client2 := newClientFor(t, srv2)
	got, err := client2.RunCells(specs)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := aggregateJSON(t, got), aggregateJSON(t, want); g != w {
		t.Errorf("post-recovery aggregate differs:\n got %s\nwant %s", g, w)
	}
	if int(sims.Load()) != missing {
		t.Errorf("re-simulated %d cells, want exactly the %d lost to the torn tail", sims.Load(), missing)
	}
	if store2.Len() != len(specs) {
		t.Errorf("store holds %d cells after recovery, want %d", store2.Len(), len(specs))
	}
}
