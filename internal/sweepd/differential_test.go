package sweepd

// Differential tests: a figure produced through `smtsweep -server`
// (spec marshaling, HTTP, the store's JSON round-trip) must be
// byte-identical to the same figure produced in-process. This holds by
// construction — both paths execute sweep.SimulateSpec on canonicalized
// specs, and Go's float64 JSON round-trip is exact — and these tests
// keep it true as the wire format evolves. They extend the repo's
// differential discipline (the pipeline's gated-versus-plain cross-check)
// up one layer, to the distribution machinery.

import (
	"testing"

	"smtsim/internal/cellstore"
	"smtsim/internal/sweep"
)

// newRealServer is newTestServer with the actual simulator behind it.
func newRealServer(t *testing.T) (*Server, *Client, *cellstore.Store) {
	t.Helper()
	return newTestServer(t, func(c *Config) {
		c.Simulate = nil // New substitutes sweep.SimulateSpec
	})
}

// diffOptions keeps the differential sweeps fast: a reduced IQ set and
// small budgets still cover every scheduler and mix.
func diffOptions(seed uint64) sweep.Options {
	return sweep.Options{Budget: 2000, Warmup: 500, Seed: seed, IQSizes: []int{16, 32}}
}

func TestFigureSpeedupServerDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential cross-check is not short")
	}
	o := diffOptions(5)
	local, err := sweep.FigureSpeedup(2, o)
	if err != nil {
		t.Fatal(err)
	}

	srv, client, _ := newRealServer(t)
	o.Runner = client.RunCells
	remote, err := sweep.FigureSpeedup(2, o)
	if err != nil {
		t.Fatal(err)
	}
	if lr, rr := local.Render(), remote.Render(); lr != rr {
		t.Errorf("server-backed figure differs from in-process:\n--- local ---\n%s\n--- remote ---\n%s", lr, rr)
	}
	if st := srv.StatsSnapshot(); st.Simulations == 0 {
		t.Error("remote run did not reach the server (0 simulations)")
	}
}

func TestFigureFairnessServerDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential cross-check is not short")
	}
	// A seed no other test uses: the alone-IPC memo is process-global
	// and keyed by seed, so this keeps the local run genuinely local.
	o := diffOptions(17)
	local, err := sweep.FigureFairness(2, o)
	if err != nil {
		t.Fatal(err)
	}

	_, client, _ := newRealServer(t)
	o.Runner = client.RunCells
	remote, err := sweep.FigureFairness(2, o)
	if err != nil {
		t.Fatal(err)
	}
	if lr, rr := local.Render(), remote.Render(); lr != rr {
		t.Errorf("server-backed fairness figure differs from in-process:\n--- local ---\n%s\n--- remote ---\n%s", lr, rr)
	}
}

// TestTable1WarmRerunIsFree is the tentpole's acceptance proof, scaled
// to test budgets: run the paper's full Table-1 cell grid against a
// sweepd server twice, with the real simulator. The second run must
// perform ZERO simulations — every cell a cache hit — and return
// byte-identical results.
func TestTable1WarmRerunIsFree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real simulator over the Table-1 grid")
	}
	specs, err := sweep.Table1Specs(sweep.Options{Budget: 1500, Warmup: 500, Seed: 3, IQSizes: []int{32}})
	if err != nil {
		t.Fatal(err)
	}
	srv, client, _ := newRealServer(t)

	cold, err := client.RunCells(specs)
	if err != nil {
		t.Fatal(err)
	}
	afterCold := srv.StatsSnapshot()
	if afterCold.Simulations != int64(len(specs)) {
		t.Fatalf("cold run simulated %d of %d cells", afterCold.Simulations, len(specs))
	}

	warm, err := client.RunCells(specs)
	if err != nil {
		t.Fatal(err)
	}
	afterWarm, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if afterWarm.Simulations != afterCold.Simulations {
		t.Errorf("warm rerun simulated %d cells, want 0", afterWarm.Simulations-afterCold.Simulations)
	}
	if hits := afterWarm.CacheHits - afterCold.CacheHits; hits != int64(len(specs)) {
		t.Errorf("warm rerun: %d/%d cells served from cache", hits, len(specs))
	}
	if c, w := aggregateJSON(t, cold), aggregateJSON(t, warm); c != w {
		t.Error("warm rerun results are not byte-identical to the cold run")
	}
}
