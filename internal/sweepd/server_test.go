package sweepd

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smtsim"
	"smtsim/internal/cellstore"
)

// fakeSimulate is a deterministic stand-in simulator: the result is a
// pure function of the spec (derived from its content hash), so any
// two executions of one cell agree — exactly the property the real
// simulator has, at none of the cost.
func fakeSimulate(s cellstore.Spec) (smtsim.Result, error) {
	raw, _ := hex.DecodeString(s.Key()[:16])
	v := binary.BigEndian.Uint64(raw)
	return smtsim.Result{
		Cycles:    int64(v % 1_000_000),
		Committed: s.Budget,
		IPC:       1 + float64(v%1000)/1000,
		Threads: []smtsim.ThreadResult{
			{Benchmark: s.Benchmarks[0], Committed: s.Budget, IPC: 1},
		},
	}, nil
}

func testSpecs(n int) []cellstore.Spec {
	names := []string{"equake", "twolf", "gcc", "gzip", "mcf", "vpr"}
	specs := make([]cellstore.Spec, n)
	for i := range specs {
		specs[i] = cellstore.Spec{
			Benchmarks: []string{names[i%len(names)], names[(i+1)%len(names)]},
			Scheduler:  smtsim.TwoOpOOOD.String(),
			IQSize:     32 + 16*(i/len(names)),
			Budget:     2000,
			Warmup:     1000,
			Seed:       2,
		}.Canonical()
	}
	return specs
}

// newTestServer spins up a server over a fresh store and an httptest
// front end. mutate tweaks the config before start.
func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *Client, *cellstore.Store) {
	t.Helper()
	store, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store:    store,
		Workers:  4,
		Simulate: fakeSimulate,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Shutdown() })
	return srv, &Client{Base: ts.URL}, store
}

// newClientFor fronts an existing server with an httptest listener.
func newClientFor(t *testing.T, srv *Server) *Client {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL}
}

func TestSweepEndToEnd(t *testing.T) {
	_, client, _ := newTestServer(t, nil)
	specs := testSpecs(10)
	got, err := client.RunCells(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("%d results for %d specs", len(got), len(specs))
	}
	for i, s := range specs {
		want, _ := fakeSimulate(s)
		if got[i].Cycles != want.Cycles || got[i].IPC != want.IPC {
			t.Errorf("cell %d: got %+v want %+v", i, got[i], want)
		}
	}

	// A direct cell fetch serves from the store.
	resp, err := http.Get(client.url("/v1/cells/" + specs[0].Key()))
	if err != nil {
		t.Fatal(err)
	}
	var line cellLine
	if err := decodeJSON(resp, &line); err != nil {
		t.Fatal(err)
	}
	if line.Result == nil || line.Result.Cycles != got[0].Cycles {
		t.Errorf("GET /v1/cells: %+v", line)
	}

	// An unknown cell is a 404.
	resp, err = http.Get(client.url("/v1/cells/" + "0000000000000000000000000000000000000000000000000000000000000000"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown cell status = %v", resp.Status)
	}
}

// TestStreamMatchesFinal asserts the streamed aggregation and
// the final sweep GET describe exactly the same outcomes — partial
// rendering can never drift from the completed figure.
func TestStreamMatchesFinal(t *testing.T) {
	_, client, _ := newTestServer(t, func(c *Config) {
		c.Simulate = func(s cellstore.Spec) (smtsim.Result, error) {
			time.Sleep(time.Duration(1+s.Budget%3) * time.Millisecond)
			return fakeSimulate(s)
		}
	})
	specs := testSpecs(12)
	id := submitSweep(t, client, specs)

	// Stream until done, collecting per-index lines.
	streamed := make(map[int]cellLine)
	stream, err := http.Get(client.url("/v1/sweeps/" + id + "/stream"))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != frameType {
		t.Fatalf("stream Content-Type %q, want %q", ct, frameType)
	}
	body := bufio.NewReader(stream.Body)
	var buf []byte
	for {
		line, b, err := readFrame(body, buf)
		if buf = b; err != nil {
			t.Fatalf("stream ended without a done message: %v", err)
		}
		if line.Done {
			if line.Total != len(specs) {
				t.Errorf("done message total %d, want %d", line.Total, len(specs))
			}
			break
		}
		if _, dup := streamed[line.Index]; dup {
			t.Errorf("index %d streamed twice", line.Index)
		}
		streamed[line.Index] = line
	}

	// Final status must agree cell by cell.
	resp, err := http.Get(client.url("/v1/sweeps/" + id))
	if err != nil {
		t.Fatal(err)
	}
	var st sweepStatus
	if err := decodeJSON(resp, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.Done != len(specs) || len(st.Cells) != len(specs) {
		t.Fatalf("final status: %+v", st)
	}
	if len(streamed) != len(specs) {
		t.Fatalf("streamed %d cells, want %d", len(streamed), len(specs))
	}
	for _, c := range st.Cells {
		sLine, ok := streamed[c.Index]
		if !ok {
			t.Errorf("cell %d missing from stream", c.Index)
			continue
		}
		sj, _ := json.Marshal(sLine)
		fj, _ := json.Marshal(c)
		if string(sj) != string(fj) {
			t.Errorf("cell %d: stream %s != final %s", c.Index, sj, fj)
		}
	}
}

// TestSingleflight floods the server with overlapping sweeps from
// parallel clients and asserts every unique cell simulated exactly
// once. Run under -race, this is also the concurrency soundness check
// for the queue/flight/store plumbing.
func TestSingleflight(t *testing.T) {
	var mu sync.Mutex
	simCount := make(map[string]int)
	_, client, _ := newTestServer(t, func(c *Config) {
		inner := c.Simulate
		c.Simulate = func(s cellstore.Spec) (smtsim.Result, error) {
			mu.Lock()
			simCount[s.Key()]++
			mu.Unlock()
			time.Sleep(2 * time.Millisecond) // widen the race window
			return inner(s)
		}
	})

	specs := testSpecs(12)
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	outs := make([][]smtsim.Result, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each client submits the same cells in its own order.
			rng := rand.New(rand.NewSource(int64(g)))
			shuffled := append([]cellstore.Spec(nil), specs...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			outs[g], errs[g] = client.RunCells(shuffled)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", g, err)
		}
		if len(outs[g]) != len(specs) {
			t.Fatalf("client %d: %d results", g, len(outs[g]))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(simCount) != len(specs) {
		t.Errorf("%d unique cells simulated, want %d", len(simCount), len(specs))
	}
	for h, n := range simCount {
		if n != 1 {
			t.Errorf("cell %.8s simulated %d times", h, n)
		}
	}
}

// TestIdleWorkersAllWake submits as many cells as there are workers,
// all of them asleep, behind a barrier that opens only once every cell
// is simulating at the same time. The workers have no poll timer to
// fall back on, so a dropped wakeup leaves the barrier shut; the test's
// own deadline only turns that hang into a failure.
func TestIdleWorkersAllWake(t *testing.T) {
	const workers = 4
	var arrived atomic.Int64
	open := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(open) }) }
	defer release()
	_, client, _ := newTestServer(t, func(c *Config) {
		c.Workers = workers
		c.Simulate = func(s cellstore.Spec) (smtsim.Result, error) {
			if arrived.Add(1) == workers {
				release()
			}
			<-open
			return fakeSimulate(s)
		}
	})

	done := make(chan error, 1)
	go func() {
		_, err := client.RunCells(testSpecs(workers))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Errorf("only %d of %d cells simulating: a sleeping worker missed its wakeup", arrived.Load(), workers)
		release()
		<-done
	}
}

// TestCheckpointRestore shuts a server down with cells still queued
// and asserts a fresh server over the same store picks them up.
func TestCheckpointRestore(t *testing.T) {
	store, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv, err := New(Config{
		Store:   store,
		Workers: 1,
		Simulate: func(s cellstore.Spec) (smtsim.Result, error) {
			<-release
			return fakeSimulate(s)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{Base: ts.URL}

	specs := testSpecs(3)
	submitSweep(t, client, specs)

	// Wait for the lone worker to enter cell 1, then shut down while
	// unblocking it: the worker finishes its cell (the boundary) and
	// cells 2-3 are checkpointed.
	waitFor(t, time.Second, func() bool { return srv.StatsSnapshot().Inflight == 1 })
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown() }()
	<-srv.quit // quit is closed before the release, so the worker must stop
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatalf("%d cells in store after shutdown, want 1", store.Len())
	}
	if _, err := os.Stat(filepath.Join(store.Dir(), "queue.json")); err != nil {
		t.Fatalf("no queue checkpoint: %v", err)
	}

	// A fresh server restores the checkpoint and drains it unprompted.
	srv2, err := New(Config{Store: store, Workers: 2, Simulate: fakeSimulate})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown()
	waitFor(t, 5*time.Second, func() bool { return store.Len() == len(specs) })
	for i, s := range specs {
		got, ok, err := store.Get(s.Key())
		if err != nil || !ok {
			t.Fatalf("cell %d missing after restore: ok=%v err=%v", i, ok, err)
		}
		want, _ := fakeSimulate(s)
		if got.Cycles != want.Cycles {
			t.Errorf("cell %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := os.Stat(filepath.Join(store.Dir(), "queue.json")); !os.IsNotExist(err) {
		t.Errorf("queue checkpoint not consumed: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, client, _ := newTestServer(t, nil)
	for name, body := range map[string]string{
		"empty":         `{"cells":[]}`,
		"not-json":      `{`,
		"bad-scheduler": `{"cells":[{"benchmarks":["equake"],"scheduler":"quantum","iq_size":64,"budget":1000}]}`,
		"zero-budget":   `{"cells":[{"benchmarks":["equake"],"scheduler":"traditional","iq_size":64}]}`,
	} {
		resp, err := http.Post(client.url("/v1/sweep"), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %v, want 400", name, resp.Status)
		}
	}
	if resp, err := http.Get(client.url("/v1/sweeps/nope")); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown sweep: status %v", resp.Status)
		}
	}
}

// TestStatsCounters asserts the hit/miss/simulation accounting a warm
// rerun depends on: a repeated sweep is all cache hits, zero new
// simulations, zero new misses.
func TestStatsCounters(t *testing.T) {
	srv, client, _ := newTestServer(t, nil)
	specs := testSpecs(6)
	if _, err := client.RunCells(specs); err != nil {
		t.Fatal(err)
	}
	cold := srv.StatsSnapshot()
	if cold.Simulations != int64(len(specs)) {
		t.Errorf("cold simulations = %d, want %d", cold.Simulations, len(specs))
	}
	if cold.Misses != int64(len(specs)) || cold.CacheHits != 0 {
		t.Errorf("cold hits/misses = %d/%d", cold.CacheHits, cold.Misses)
	}
	if _, err := client.RunCells(specs); err != nil {
		t.Fatal(err)
	}
	warm, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulations != cold.Simulations {
		t.Errorf("warm rerun simulated: %d -> %d", cold.Simulations, warm.Simulations)
	}
	if warm.CacheHits != int64(len(specs)) {
		t.Errorf("warm cache hits = %d, want %d", warm.CacheHits, len(specs))
	}
	if warm.Misses != cold.Misses {
		t.Errorf("warm rerun missed: %d -> %d", cold.Misses, warm.Misses)
	}
	if warm.QueueDepth != 0 || warm.Inflight != 0 {
		t.Errorf("idle server reports queue=%d inflight=%d", warm.QueueDepth, warm.Inflight)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
