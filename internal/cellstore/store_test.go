package cellstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtsim"
)

func testSpec(bench string, iq int) Spec {
	return Spec{
		Benchmarks: []string{bench, "gzip"},
		Scheduler:  smtsim.TwoOpOOOD.String(),
		IQSize:     iq,
		Budget:     1000,
		Warmup:     500,
		Seed:       2,
	}
}

func testResult(ipc float64) smtsim.Result {
	return smtsim.Result{
		Cycles:    1234,
		Committed: 1000,
		IPC:       ipc,
		Threads: []smtsim.ThreadResult{
			{Benchmark: "equake", Committed: 600, IPC: ipc / 2},
			{Benchmark: "gzip", Committed: 400, IPC: ipc / 2},
		},
	}
}

func TestKeyCanonicalization(t *testing.T) {
	a := testSpec("equake", 64)
	b := a
	b.FetchGate = "none" // alias of ""
	if a.Key() != b.Key() {
		t.Errorf("gate alias changes key: %s vs %s", a.Key(), b.Key())
	}
	c := a
	c.IQSize = 96
	if a.Key() == c.Key() {
		t.Error("different IQ sizes share a key")
	}
	d := a
	d.Benchmarks = []string{"gzip", "equake"} // thread order matters
	if a.Key() == d.Key() {
		t.Error("reordered benchmarks share a key")
	}
	if len(a.Key()) != 64 {
		t.Errorf("key %q is not hex sha256", a.Key())
	}
}

// TestKeyAllocs bounds Key's allocations: the spec boxed for Marshal,
// Marshal's result and the returned string. The sweep service hashes
// every submitted cell, warm or not.
func TestKeyAllocs(t *testing.T) {
	s := testSpec("equake", 64)
	s.Benchmarks = append(s.Benchmarks, "twolf", "gcc")
	if n := testing.AllocsPerRun(100, func() { _ = s.Key() }); n > 3 && !raceEnabled {
		t.Errorf("Key allocates %v times per call, want at most 3", n)
	}
	// The nil benchmark list hashes as its canonical empty list.
	var empty Spec
	if got, want := empty.Key(), (Spec{Benchmarks: []string{}}).Key(); got != want {
		t.Errorf("nil benchmarks hash to %s, empty to %s", got, want)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("equake", 64)
	want := testResult(1.5)
	hash, err := s.Put(spec, want)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(hash)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if got.Cycles != want.Cycles || got.IPC != want.IPC || len(got.Threads) != 2 {
		t.Errorf("round trip mutated result: %+v", got)
	}

	// A fresh Store over the same directory must see the record (disk,
	// not just the in-process index).
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got2, ok, err := s2.Get(hash)
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%v err=%v", ok, err)
	}
	if got2.Cycles != want.Cycles || got2.Threads[0].IPC != want.Threads[0].IPC {
		t.Errorf("reopened result mutated: %+v", got2)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	specA := testSpec("equake", 64)
	specB := testSpec("twolf", 64)
	hashA, err := s.Put(specA, testResult(1.5))
	if err != nil {
		t.Fatal(err)
	}
	hashB, err := s.Put(specB, testResult(0.7))
	if err != nil {
		t.Fatal(err)
	}

	// Tear the tail of every shard: simulate a writer killed mid-append.
	shards, _ := filepath.Glob(filepath.Join(dir, "shards", "*.jsonl"))
	if len(shards) == 0 {
		t.Fatal("no shards written")
	}
	for _, p := range shards {
		f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"hash":"deadbeef","spec":{"benchm`); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn tails: %v", err)
	}
	if got := s2.StatsSnapshot().TornTails; got != int64(len(shards)) {
		t.Errorf("TornTails = %d, want %d", got, len(shards))
	}
	for _, h := range []string{hashA, hashB} {
		if _, ok, err := s2.Get(h); err != nil || !ok {
			t.Errorf("record %s lost to torn-tail recovery: ok=%v err=%v", h[:8], ok, err)
		}
	}
	// The torn bytes are gone from disk.
	for _, p := range shards {
		b, _ := os.ReadFile(p)
		if strings.Contains(string(b), "deadbeef") {
			t.Errorf("torn tail survives in %s", p)
		}
	}
}

func TestManifestSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "MANIFEST.json")
	if err := os.WriteFile(path, []byte(`{"schema": 999, "prefix_len": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("schema-mismatched store opened without error")
	} else if !strings.Contains(err.Error(), "schema") {
		t.Errorf("unhelpful mismatch error: %v", err)
	}
}

func TestPutIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("equake", 48)
	if _, err := s.Put(spec, testResult(1.0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(spec, testResult(1.0)); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 1 {
		t.Errorf("Len = %d after duplicate put", n)
	}
	path, _ := s.shardPath(spec.Key())
	b, _ := os.ReadFile(path)
	if got := strings.Count(string(b), "\n"); got != 1 {
		t.Errorf("%d lines on disk after duplicate put, want 1", got)
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec("equake", 64)
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Spec){
		"no-benchmarks": func(s *Spec) { s.Benchmarks = nil },
		"bad-scheduler": func(s *Spec) { s.Scheduler = "quantum" },
		"zero-iq":       func(s *Spec) { s.IQSize = 0 },
		"zero-budget":   func(s *Spec) { s.Budget = 0 },
	} {
		s := testSpec("equake", 64)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
}

// sameShardSpecs returns n specs whose hashes share a shard, so one
// shard file holds several records in a known order.
func sameShardSpecs(t testing.TB, n int) []Spec {
	t.Helper()
	byShard := make(map[string][]Spec)
	for seed := uint64(0); seed < 4096; seed++ {
		sp := testSpec("equake", 64)
		sp.Seed = seed
		k := sp.Key()[:prefixLen]
		byShard[k] = append(byShard[k], sp)
		if len(byShard[k]) == n {
			return byShard[k]
		}
	}
	t.Fatalf("no %d specs share a shard", n)
	return nil
}

// populate puts every spec into a fresh store at dir and returns the
// shard file they share.
func populate(t *testing.T, dir string, specs []Spec) string {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		if _, err := s.Put(sp, testResult(float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	path, _ := s.shardPath(specs[0].Key())
	return path
}

// TestInteriorCorruptionRecovered damages the first record of a
// three-record shard. Only that record may be lost: the records after
// it are served, the loss is counted as corruption rather than a torn
// tail, and the repaired shard reopens clean.
func TestInteriorCorruptionRecovered(t *testing.T) {
	dir := t.TempDir()
	specs := sameShardSpecs(t, 3)
	shard := populate(t, dir, specs)
	b, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1 // '{' -> 'z': the first line no longer parses
	if err := os.WriteFile(shard, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.StatsSnapshot(); st.Corrupt != 1 || st.TornTails != 0 {
		t.Errorf("Corrupt = %d, TornTails = %d, want 1 and 0", st.Corrupt, st.TornTails)
	}
	if _, ok, _ := s.Get(specs[0].Key()); ok {
		t.Error("corrupt record served")
	}
	for i, sp := range specs[1:] {
		got, ok, err := s.Get(sp.Key())
		if err != nil || !ok {
			t.Fatalf("record %d after the corrupt line lost: ok=%v err=%v", i+1, ok, err)
		}
		if got.IPC != float64(i+2) {
			t.Errorf("record %d: IPC %v, want %v", i+1, got.IPC, float64(i+2))
		}
	}

	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := again.StatsSnapshot(); st.Corrupt != 0 || again.Len() != 2 {
		t.Errorf("repaired shard reopens with Corrupt = %d and %d cells, want 0 and 2", st.Corrupt, again.Len())
	}
}

// TestFlippedHashRejected damages one hex digit of a stored hash. The
// record must not be served under either key.
func TestFlippedHashRejected(t *testing.T) {
	dir := t.TempDir()
	specs := sameShardSpecs(t, 3)
	shard := populate(t, dir, specs)
	b, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	victim := specs[1].Key()
	flipped := victim[:10] + string(victim[10]^1) + victim[11:]
	b = []byte(strings.Replace(string(b), `"hash":"`+victim, `"hash":"`+flipped, 1))
	if err := os.WriteFile(shard, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{victim, flipped} {
		if _, ok, _ := s.Get(h); ok {
			t.Errorf("record with a damaged hash served under %.12s", h)
		}
	}
	for _, sp := range []Spec{specs[0], specs[2]} {
		if _, ok, _ := s.Get(sp.Key()); !ok {
			t.Errorf("intact record %.8s lost", sp.Key())
		}
	}
	if got := s.StatsSnapshot().Corrupt; got != 1 {
		t.Errorf("Corrupt = %d, want 1", got)
	}
}

// TestStaleLeasesIgnored opens a store that still carries the leases
// directory from an older build: the lease files mean nothing now, and
// every stored cell is served.
func TestStaleLeasesIgnored(t *testing.T) {
	dir := t.TempDir()
	specs := []Spec{testSpec("equake", 64), testSpec("twolf", 32), testSpec("gcc", 16)}
	populate(t, dir, specs)
	leases := filepath.Join(dir, "leases")
	if err := os.MkdirAll(leases, 0o755); err != nil {
		t.Fatal(err)
	}
	body := `{"owner":"sweepd-1","expires_unix_nano":9223372036854775807}` + "\n"
	if err := os.WriteFile(filepath.Join(leases, "x.lease"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if _, ok, err := s.Get(sp.Key()); err != nil || !ok {
			t.Errorf("cell %.8s not served beside a stale lease: ok=%v err=%v", sp.Key(), ok, err)
		}
	}
}
