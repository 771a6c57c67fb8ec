package smtsim_test

import (
	"fmt"
	"testing"

	"smtsim"
)

// TestWakeupDifferential proves the event-driven wakeup is bit-identical
// to the legacy per-cycle polling implementation: the same 4-thread mix,
// run both ways, must produce exactly equal cycle counts, per-thread
// committed counts, and IQ residency/occupancy statistics — for all
// three schedulers at IQ sizes 32 and 64. Any divergence in the wakeup
// rewrite (a missed broadcast, a stale counter, a reordered ready list)
// shows up here as a cycle-count mismatch.
//
// It checks wakeup, not stage gating: both runs are sanitized, and a
// sanitized core always steps through the plain every-stage walk, so the
// event side never executes the gated step. The gated-versus-plain
// comparison is internal/pipeline's TestGatingMatchesPlainWalk.
func TestWakeupDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential cross-check is not short")
	}
	for _, sched := range []smtsim.Scheduler{smtsim.Traditional, smtsim.TwoOpBlock, smtsim.TwoOpOOOD} {
		for _, iqSize := range []int{32, 64} {
			t.Run(fmt.Sprintf("%s/iq%d", sched, iqSize), func(t *testing.T) {
				t.Parallel()
				cfg := smtsim.Config{
					Benchmarks:      []string{"equake", "twolf", "gcc", "gzip"},
					IQSize:          iqSize,
					Scheduler:       sched,
					MaxInstructions: 20_000,
					Seed:            7,
				}
				assertWakeupIdentical(t, cfg)
			})
		}
	}
}

// TestWakeupDifferentialVariants covers the paths the base matrix does
// not: the thread-rotating issue arbiter (the event mode reorders its
// ready list with a bucket pass instead of a sort), the watchdog
// whole-pipeline flush, and the FLUSH fetch gate's partial squash with
// rename rollback — the cases where stale consumer-list entries and
// recycled UOps could corrupt an unsound implementation.
func TestWakeupDifferentialVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("differential cross-check is not short")
	}
	base := smtsim.Config{
		Benchmarks:      []string{"equake", "twolf", "gcc", "gzip"},
		IQSize:          32,
		Scheduler:       smtsim.TwoOpOOOD,
		MaxInstructions: 20_000,
		Seed:            11,
	}
	variants := map[string]func(*smtsim.Config){
		"thread-rotate-select": func(c *smtsim.Config) { c.ThreadRotateSelect = true },
		"watchdog":             func(c *smtsim.Config) { c.Deadlock = smtsim.DeadlockWatchdog },
		"gate-flush":           func(c *smtsim.Config) { c.FetchGate = "flush" },
		"warmup":               func(c *smtsim.Config) { c.WarmupInstructions = 5_000 },
	}
	for name, mutate := range variants {
		cfg := base
		mutate(&cfg)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			assertWakeupIdentical(t, cfg)
		})
	}
}

func assertWakeupIdentical(t *testing.T, cfg smtsim.Config) {
	t.Helper()
	// Both runs execute under the invariant sanitizer: any structural
	// corruption fails the run directly, in addition to the statistical
	// comparison below. The checker is read-only, so it cannot perturb
	// the bit-identity being asserted.
	cfg.Sanitize = true
	event := cfg
	event.PollingWakeup = false
	polling := cfg
	polling.PollingWakeup = true

	re, err := smtsim.Run(event)
	if err != nil {
		t.Fatalf("event-driven run: %v", err)
	}
	rp, err := smtsim.Run(polling)
	if err != nil {
		t.Fatalf("polling run: %v", err)
	}

	if re.Cycles != rp.Cycles {
		t.Errorf("cycles diverge: event %d, polling %d", re.Cycles, rp.Cycles)
	}
	if re.Committed != rp.Committed {
		t.Errorf("total committed diverge: event %d, polling %d", re.Committed, rp.Committed)
	}
	if re.IQResidency != rp.IQResidency {
		t.Errorf("IQ residency diverges: event %v, polling %v", re.IQResidency, rp.IQResidency)
	}
	if re.IQOccupancy != rp.IQOccupancy {
		t.Errorf("IQ occupancy diverges: event %v, polling %v", re.IQOccupancy, rp.IQOccupancy)
	}
	if re.DispatchStallAllNDI != rp.DispatchStallAllNDI ||
		re.DispatchStallNDIWeak != rp.DispatchStallNDIWeak ||
		re.DispatchStallAllAny != rp.DispatchStallAllAny {
		t.Errorf("dispatch stall stats diverge: event %+v/%+v/%+v, polling %+v/%+v/%+v",
			re.DispatchStallAllNDI, re.DispatchStallNDIWeak, re.DispatchStallAllAny,
			rp.DispatchStallAllNDI, rp.DispatchStallNDIWeak, rp.DispatchStallAllAny)
	}
	if len(re.Threads) != len(rp.Threads) {
		t.Fatalf("thread count diverges: event %d, polling %d", len(re.Threads), len(rp.Threads))
	}
	for i := range re.Threads {
		if re.Threads[i].Committed != rp.Threads[i].Committed {
			t.Errorf("thread %d (%s) committed diverges: event %d, polling %d",
				i, re.Threads[i].Benchmark, re.Threads[i].Committed, rp.Threads[i].Committed)
		}
		if re.Threads[i].IPC != rp.Threads[i].IPC {
			t.Errorf("thread %d (%s) IPC diverges: event %v, polling %v",
				i, re.Threads[i].Benchmark, re.Threads[i].IPC, rp.Threads[i].IPC)
		}
	}
}
