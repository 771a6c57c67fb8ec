package pipeline

import (
	"strings"
	"testing"

	icore "smtsim/internal/core"
	"smtsim/internal/isa"
	"smtsim/internal/uop"
)

// init force-enables the invariant sanitizer for every core this test
// binary builds: all existing pipeline tests double as sanitizer runs
// and fail-stop at the first violated cycle.
func init() { testSanitize = true }

// disableSanitizer opts a core out of the test-wide sanitizer (the
// benchmarks and zero-alloc tests measure the production cycle path).
func (c *Core) disableSanitizer() {
	c.san = nil
	c.sanPanic = false
}

// sanitizedCore builds a 2-thread OOOD core and advances it until the
// issue queue holds an instruction with pending source operands,
// returning the core and that entry — a convenient victim for the
// deliberate-corruption tests.
func sanitizedCore(t *testing.T) (*Core, *uop.UOp) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Policy = icore.TwoOpOOOD
	c, err := New(cfg, []ThreadSpec{
		{Name: "equake", Reader: benchStream(t, "equake", 3)},
		{Name: "gcc", Reader: benchStream(t, "gcc", 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 50_000; cycle++ {
		c.Step()
		var victim *uop.UOp
		c.q.ForEach(func(u *uop.UOp) {
			if victim == nil && c.bank.NotReady[u.ID] > 0 {
				victim = u
			}
		})
		if victim != nil {
			return c, victim
		}
	}
	t.Fatal("no IQ entry with pending sources appeared in 50k cycles")
	return nil, nil
}

// TestSanitizerCleanRun is the explicit form of what every test in this
// package now checks implicitly: a correct machine sustains thousands of
// sanitized cycles with zero violations.
func TestSanitizerCleanRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = icore.TwoOpOOOD
	cfg.Sanitize = true
	c, err := New(cfg, []ThreadSpec{
		{Name: "equake", Reader: benchStream(t, "equake", 1)},
		{Name: "gzip", Reader: benchStream(t, "gzip", 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(10_000); err != nil {
		t.Errorf("sanitized run failed: %v", err)
	}
	if got := len(c.Sanitizer().Violations()); got != 0 {
		t.Errorf("%d violations on a correct machine", got)
	}
}

// TestSanitizerCatchesCorruption plants one targeted corruption per
// sanitizer invariant and requires the very next check to flag it — the
// "race detector" property: a broken wakeup or a register accounting
// slip is caught within one cycle, not ten thousand cycles later as a
// wrong IPC.
func TestSanitizerCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *Core, victim *uop.UOp)
		want   []string // any of these substrings in the violation report
	}{
		{
			// A tag broadcast that never reached this consumer: the
			// counter stays high while the register file says ready.
			name:   "missed-broadcast",
			mutate: func(c *Core, victim *uop.UOp) { c.bank.NotReady[victim.ID]++ },
			want:   []string{"counter"},
		},
		{
			// A spurious wakeup: the counter reaches zero while a source
			// operand is still outstanding.
			name:   "spurious-wakeup",
			mutate: func(c *Core, victim *uop.UOp) { c.bank.NotReady[victim.ID]-- },
			want:   []string{"counter"},
		},
		{
			// A double free on the flush path: a live destination goes
			// back to the free list while its instruction is in flight.
			// Depending on whether that destination is still the thread's
			// speculative mapping, either the rename-consistency check or
			// the conservation check reports it.
			name: "double-free",
			mutate: func(c *Core, victim *uop.UOp) {
				u := findLiveDest(c)
				c.rf.Free(u.Dest)
			},
			want: []string{"reachable but freed", "not allocated"},
		},
		{
			// A leak: an allocation nothing in the machine accounts for.
			name:   "leak",
			mutate: func(c *Core, victim *uop.UOp) { c.rf.Alloc(isa.IntReg) },
			want:   []string{"leaked"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, victim := sanitizedCore(t)
			tc.mutate(c, victim)
			err := c.Sanitizer().CheckCycle(c.Cycle())
			if err == nil {
				t.Fatal("sanitizer accepted a corrupted machine")
			}
			matched := false
			for _, w := range tc.want {
				matched = matched || strings.Contains(err.Error(), w)
			}
			if !matched {
				t.Errorf("violation %q does not mention any of %q", err, tc.want)
			}
		})
	}
}

// findLiveDest returns an in-flight instruction with a valid destination
// register.
func findLiveDest(c *Core) *uop.UOp {
	for _, r := range c.robs {
		var found *uop.UOp
		r.ForEach(func(u *uop.UOp) {
			if found == nil && u.Dest.Valid() {
				found = u
			}
		})
		if found != nil {
			return found
		}
	}
	panic("no in-flight instruction with a destination")
}

// TestSanitizerFailStopWithinOneCycle verifies the test-mode fail-stop:
// after a corruption, the next Step panics with the structured violation
// rather than letting the simulation drift.
func TestSanitizerFailStopWithinOneCycle(t *testing.T) {
	c, victim := sanitizedCore(t)
	c.bank.NotReady[victim.ID]++
	cycleBefore := c.Cycle()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Step on a corrupted machine did not fail-stop")
		}
		if c.Cycle() != cycleBefore+1 {
			t.Errorf("violation surfaced at cycle %d, want %d (within one cycle)", c.Cycle(), cycleBefore+1)
		}
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "simsan") {
			t.Errorf("panic value %v is not a structured simsan violation", r)
		}
	}()
	c.Step()
}

// TestSanitizerErrorSurfacesThroughRun verifies the production path:
// with Config.Sanitize (no fail-stop), Run returns the violation as an
// error with partial results.
func TestSanitizerErrorSurfacesThroughRun(t *testing.T) {
	c, victim := sanitizedCore(t)
	c.sanPanic = false // production reporting mode
	c.bank.NotReady[victim.ID]++
	_, err := c.Run(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "invariant violation") {
		t.Fatalf("Run returned %v, want a wrapped invariant violation", err)
	}
	if c.SanitizerError() == nil {
		t.Error("SanitizerError lost the violation")
	}
}
