package pipeline

import (
	"reflect"
	"strings"
	"testing"

	icore "smtsim/internal/core"
	"smtsim/internal/iq"
	"smtsim/internal/metrics"
	"smtsim/internal/uop"
)

// commitRecord is one committed instruction's identity and timing — the
// tuple that must match for two runs to count as bit-identical.
type commitRecord struct {
	thread int
	pc     uint64
	gseq   uint64
	cycle  int64
}

// runCommitStream drives a 4-thread Table 1 mix on a production
// (unsanitized) core built from cfg — through Warmup(warmup) when warmup
// is non-zero, then to maxCommit measured commits — and returns the full
// commit stream plus the final results. forcePlain selects the plain
// reference over the gated step with its dispatch freeze and
// fastForward.
func runCommitStream(t *testing.T, cfg Config, forcePlain bool, warmup, maxCommit uint64) ([]commitRecord, metrics.Results) {
	t.Helper()
	c, err := New(cfg, []ThreadSpec{
		{Name: "equake", Reader: benchStream(t, "equake", 11)},
		{Name: "twolf", Reader: benchStream(t, "twolf", 12)},
		{Name: "gcc", Reader: benchStream(t, "gcc", 13)},
		{Name: "gzip", Reader: benchStream(t, "gzip", 14)},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.disableSanitizer() // exercise stepGated, which a sanitized core never takes
	c.forcePlain = forcePlain
	var stream []commitRecord
	c.SetCommitHook(func(u *uop.UOp) {
		stream = append(stream, commitRecord{thread: u.Thread, pc: u.Inst.PC, gseq: u.GSeq, cycle: c.cycle})
	})
	if err := c.Warmup(warmup); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(maxCommit)
	if err != nil {
		t.Fatal(err)
	}
	return stream, res
}

// TestGatingMatchesPlainWalk runs a long mixed workload twice per
// machine variant — once through the gated step with its dispatch
// freeze and fastForward, once as the forcePlain reference, which runs
// every stage every cycle — and requires bit-identical commit streams
// (thread, PC, sequence number, and commit cycle of every instruction)
// and identical statistics. This is the end-to-end differential proof
// that stage gating, the dispatch replay and the quiet-cycle jump never
// skip or invent work: a stale predicate or a missed rotation would
// shift at least one commit cycle. The variants cover the three
// schedulers plus the paths that rewrite state between gated stages:
// the watchdog flush (and fastForward's watchdog-expiry bound), the
// STALL and FLUSH fetch gates, the thread-rotating issue arbiter, a
// bounded MSHR file, a one-wide machine, a 32-entry queue, and a warmup
// whose statistics reset falls inside the run.
// Where a variant's mechanism leaves a counter, the run must show it
// fired, so the case cannot pass vacuously.
func TestGatingMatchesPlainWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential run")
	}
	policy := func(p icore.Policy) func(*Config) {
		return func(c *Config) { c.Policy = p }
	}
	ooo := func(mutate func(*Config)) func(*Config) {
		return func(c *Config) {
			c.Policy = icore.TwoOpOOOD
			mutate(c)
		}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		warmup uint64
		fired  func(metrics.Results) uint64 // nil: the variant leaves no counter
	}{
		{name: icore.TwoOpOOOD.String(), mutate: policy(icore.TwoOpOOOD)},
		{name: icore.TwoOpBlock.String(), mutate: policy(icore.TwoOpBlock)},
		{name: icore.InOrder.String(), mutate: policy(icore.InOrder)},
		{
			// The default 450-cycle limit never expires on this mix; 100
			// does, so the flush and the fast-forward bound both run.
			name: "watchdog",
			mutate: ooo(func(c *Config) {
				c.Deadlock = DeadlockWatchdog
				c.WatchdogLimit = 100
			}),
			fired: func(r metrics.Results) uint64 { return r.WatchdogFlushes },
		},
		{
			name:   "gate-flush",
			mutate: ooo(func(c *Config) { c.FetchGate = GateFlush }),
			fired:  func(r metrics.Results) uint64 { return r.GateFlushes },
		},
		{name: "gate-stall", mutate: ooo(func(c *Config) { c.FetchGate = GateStall })},
		{name: "thread-rotate-select", mutate: ooo(func(c *Config) { c.Select = iq.ThreadRotate })},
		{
			name:   "mshr4",
			mutate: ooo(func(c *Config) { c.MSHRs = 4 }),
			fired:  func(r metrics.Results) uint64 { return r.MSHRStallEvents },
		},
		{
			// A one-wide machine's budget-bounded commit leaves completed
			// ROB heads queued across cycles.
			name:   "width-1",
			mutate: ooo(func(c *Config) { c.Width = 1 }),
		},
		{name: "iq32", mutate: ooo(func(c *Config) { c.IQSize = 32 })},
		{
			// Warmup resets every statistic mid-run; quiet-cycle jumps on
			// both sides of the reset must leave identical results.
			name:   "warmup",
			mutate: policy(icore.TwoOpOOOD),
			warmup: 5_000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const budget = 30_000
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			gated, gatedRes := runCommitStream(t, cfg, false, tc.warmup, budget)
			plain, plainRes := runCommitStream(t, cfg, true, tc.warmup, budget)
			if len(gated) != len(plain) {
				t.Fatalf("commit stream lengths diverge: gated %d, plain %d", len(gated), len(plain))
			}
			for i := range gated {
				if gated[i] != plain[i] {
					t.Fatalf("commit %d diverges: gated %+v, plain %+v", i, gated[i], plain[i])
				}
			}
			if !reflect.DeepEqual(gatedRes, plainRes) {
				t.Errorf("results diverge:\ngated %+v\nplain %+v", gatedRes, plainRes)
			}
			if tc.fired != nil && tc.fired(gatedRes) == 0 {
				t.Errorf("the %s mechanism never fired in %d commits", tc.name, budget)
			}
		})
	}
}

// TestStaleWritebackHorizonCaught corrupts the event wheel's occupancy
// bitmap — the writeback stage's gating predicate — exactly one cycle
// before a completion is due, and requires the sanitizer to report the
// stale predicate on that very cycle. This pins the detection latency
// the sanitized plain walk promises: a predicate that hides real work is
// caught within one cycle, not whenever results later diverge.
func TestStaleWritebackHorizonCaught(t *testing.T) {
	c, _ := sanitizedCore(t)
	// Find the next pending completion and stop the cycle before it.
	due, ok := c.events.nextDue(c.cycle)
	for i := 0; !ok && i < 10_000; i++ {
		c.Step()
		due, ok = c.events.nextDue(c.cycle)
	}
	if !ok {
		t.Fatal("no pending completion events after warmup")
	}
	for c.cycle < due-1 {
		c.Step()
	}
	if d, _ := c.events.nextDue(c.cycle); d != due {
		t.Fatalf("completion at %d drained while advancing to %d", due, c.cycle)
	}
	s := due & c.events.mask
	c.events.occ[s>>6] &^= 1 << (uint(s) & 63)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sanitizer did not catch the corrupted writeback horizon")
		}
		err, isErr := r.(error)
		if !isErr || !strings.Contains(err.Error(), "stale writeback horizon") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if c.cycle != due {
			t.Errorf("violation reported at cycle %d, corrupted event due at %d", c.cycle, due)
		}
	}()
	c.Step()
}
