package sweepd

// Store hit-rate benchmarks: the cold path (every cell simulates and
// persists) against the warm path (every cell answered from the store).
// The gap between the two is the entire value proposition of
// sweep-as-a-service; CI's bench-smoke job runs both so they keep working.

import (
	"net/http/httptest"
	"os"
	"syscall"
	"testing"

	"smtsim/internal/cellstore"
)

// benchServer builds a server+listener pair. The caller owns teardown:
// a benchmark that leaks servers until the run ends would have every
// earlier iteration's workers and listener lingering into later samples.
func benchServer(b *testing.B, store *cellstore.Store) (*Server, *httptest.Server, *Client) {
	b.Helper()
	srv, err := New(Config{
		Store:    store,
		Workers:  4,
		Simulate: fakeSimulate,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, ts, &Client{Base: ts.URL}
}

// BenchmarkSweepStoreCold measures a fully cold sweep: every cell is a
// store miss, gets queued, simulated (the deterministic test stand-in,
// so the number isolates service overhead), persisted, and streamed
// back. One op = one 24-cell sweep against a fresh store.
func BenchmarkSweepStoreCold(b *testing.B) {
	specs := testSpecs(24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		store, err := cellstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		srv, ts, client := benchServer(b, store)
		b.StartTimer()
		if _, err := client.RunCells(specs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		srv.Shutdown()
		ts.Close()
		// Discard the store and flush dirty pages in the untimed gap:
		// a thousand iterations of leftover shard files otherwise
		// trigger kernel writeback that bleeds into later samples.
		os.RemoveAll(dir)
		syscall.Sync()
		b.StartTimer()
	}
}

// BenchmarkSweepStoreWarm measures the same sweep against a store that
// already holds every cell: pure hit-rate traffic, zero simulations.
// Comparing ns/op here against Cold is the store's speedup.
func BenchmarkSweepStoreWarm(b *testing.B) {
	specs := testSpecs(24)
	store, err := cellstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	srv, ts, client := benchServer(b, store)
	defer ts.Close()
	defer srv.Shutdown()
	if _, err := client.RunCells(specs); err != nil { // populate
		b.Fatal(err)
	}
	before := srv.StatsSnapshot().Simulations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.RunCells(specs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if after := srv.StatsSnapshot().Simulations; after != before {
		b.Fatalf("warm benchmark simulated %d cells", after-before)
	}
}
