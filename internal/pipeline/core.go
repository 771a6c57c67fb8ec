package pipeline

import (
	"fmt"
	"math"

	"smtsim/internal/bpred"
	"smtsim/internal/cache"
	"smtsim/internal/core"
	"smtsim/internal/fetch"
	"smtsim/internal/fu"
	"smtsim/internal/iq"
	"smtsim/internal/isa"
	"smtsim/internal/lsq"
	"smtsim/internal/metrics"
	"smtsim/internal/power"
	"smtsim/internal/regfile"
	"smtsim/internal/rename"
	"smtsim/internal/rob"
	"smtsim/internal/simsan"
	"smtsim/internal/uop"
)

// TraceReader supplies one thread's dynamic instruction stream. Streams
// are infinite; the run is bounded by the commit budget.
type TraceReader interface {
	Next() isa.Inst
}

// ThreadSpec binds a benchmark name to its trace for one hardware thread.
type ThreadSpec struct {
	Name   string
	Reader TraceReader
}

// farFuture blocks a thread's fetch until an event (branch resolution)
// re-enables it.
const farFuture = math.MaxInt64 / 2

// fetchEntry is one fetched instruction traversing the front end.
type fetchEntry struct {
	inst       isa.Inst
	readyAt    int64 // cycle at which rename may consume it
	predTaken  bool
	predTarget uint64
	mispred    bool
}

// threadState is the per-thread front-end and bookkeeping state.
type threadState struct {
	name   string
	stream TraceReader

	// replay holds instructions to refetch after a watchdog flush, in
	// program order, ahead of the stream.
	replay []isa.Inst
	// pendingInst is an instruction whose I-cache block is in flight;
	// pendingValid reports its presence. A value plus flag rather than a
	// pointer keeps the per-miss bookkeeping off the heap.
	pendingInst  isa.Inst
	pendingValid bool

	// fetchQ is a ring: qHead + qLen index into it. The backing array is
	// sized to a power of two so the ring arithmetic is a mask, not a
	// division; qCap is the configured (logical) capacity.
	fetchQ  []fetchEntry
	qHead   int
	qLen    int
	qCap    int
	qMask   int
	blocked int64 // cycle at which fetch may resume

	lastBlock      uint64
	lastBlockValid bool

	// Fetch-gating state (see gating.go).
	outstandingL1D int
	outstandingMem int
	gateLoad       *uop.UOp

	committed uint64
}

//smt:hotpath
func (ts *threadState) fetchQFull() bool { return ts.qLen == ts.qCap }

// fetchQPushSlot claims the next tail slot and returns it for in-place
// filling: the caller must set every field (slots are not zeroed between
// uses). Filling in place keeps the ~10-word fetchEntry from being
// copied twice per fetched instruction.
//
//smt:hotpath
func (ts *threadState) fetchQPushSlot() *fetchEntry {
	if ts.fetchQFull() {
		panic("pipeline: fetch queue overflow")
	}
	e := &ts.fetchQ[(ts.qHead+ts.qLen)&ts.qMask]
	ts.qLen++
	return e
}

// fetchQPeek returns the head entry in place (nil when empty); the
// pointer is valid until the next fetchQPop.
//
//smt:hotpath
func (ts *threadState) fetchQPeek() *fetchEntry {
	if ts.qLen == 0 {
		return nil
	}
	return &ts.fetchQ[ts.qHead]
}

//smt:hotpath
func (ts *threadState) fetchQPop() {
	// The vacated slot is left as-is (no pointers to release; the next
	// push overwrites every field).
	ts.qHead = (ts.qHead + 1) & ts.qMask
	ts.qLen--
}

// nextInst supplies the next instruction to fetch: a block-miss leftover
// first, then the flush-replay queue, then the live trace. The bool
// reports whether it came from pendingInst (its I-cache access already
// happened).
//
//smt:hotpath
func (ts *threadState) nextInst() (isa.Inst, bool) {
	if ts.pendingValid {
		ts.pendingValid = false
		return ts.pendingInst, true
	}
	if len(ts.replay) > 0 {
		in := ts.replay[0]
		ts.replay = ts.replay[1:]
		return in, false
	}
	return ts.stream.Next(), false
}

// Core is the simulated SMT processor.
type Core struct {
	cfg      Config
	nthreads int
	cycle    int64
	gseq     uint64

	// bank owns every in-flight uop record (structure-of-arrays, one
	// slot per ROB entry); the per-thread ROBs are windows into it and
	// every cycle-path structure below refers to records by dense id.
	bank *uop.Bank

	rf    *regfile.File
	rats  []*rename.Table
	robs  []*rob.ROB
	lsqs  []*lsq.LSQ
	q     *iq.Queue
	disp  *core.Dispatcher
	fus   *fu.Pools
	hier  *cache.Hierarchy
	btb   *bpred.BTB
	preds []*bpred.Predictor
	sel   *fetch.Selector
	wdog  *core.Watchdog

	threads []threadState
	events  eventWheel
	scratch []int32

	// san, when non-nil, re-validates the machine's structural
	// invariants after every cycle (Config.Sanitize, or any run inside
	// this package's tests). sanErr latches the first violation so Run
	// can surface it; sanPanic makes violations fail-stop (test mode).
	san      *simsan.Checker
	sanErr   error
	sanPanic bool

	// runnableFn/icountFn are the fetch-policy callbacks, built once so
	// fetch() does not allocate two closures every cycle.
	runnableFn func(int) bool
	icountFn   func(int) int

	commitRR, renameRR int
	lastCommitCycle    int64
	onCommit           func(*uop.UOp)

	// l1iLineMask caches ^(L1I line size - 1) so fetch does not re-read
	// the cache configuration every cycle.
	l1iLineMask uint64

	// dispFrozen records that the dispatcher's last Run dispatched
	// nothing and none of its inputs (buffers, readiness counters, IQ
	// and DAB occupancy, ROB heads) changed since: the next dispatch
	// cycle would rescan identical state to the identical outcome, so
	// the step replays its accounting instead. It is the dispatch
	// stage's gate in stepGated, and the sanitized plain walk applies it
	// too.
	dispFrozen bool

	// forcePlain makes the core the plain reference: every stage runs
	// every cycle, with no predicate cross-check, no dispatch freeze and
	// no fastForward. The differential tests set it to produce the run
	// the fast machine must match bit for bit.
	forcePlain bool

	// Statistics baselines, set by Warmup so measurement excludes the
	// initialization period (the paper skips initialization with
	// SimPoints and measures the following 100M instructions).
	statsCycleBase int64
	commitBase     []uint64

	iqResidencySum  uint64
	iqIssued        uint64
	gateFlushes     uint64
	broadcasts      uint64
	inFlightMisses  int
	mshrStallEvents uint64
	dabIssues       uint64
	insertsBase     uint64
	dabBase         uint64
}

// New builds a core over the given configuration and thread workloads.
func New(cfg Config, specs []ThreadSpec) (*Core, error) {
	n := len(specs)
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	// One bank slot per ROB entry across all threads: ROB slot = uop id.
	bank := uop.NewBank(n * cfg.ROBPerThread)
	c := &Core{
		cfg:      cfg,
		nthreads: n,
		// Rename sequence numbers start at one so a reset UOp's zero GSeq
		// never matches a live token (see uop.Reset).
		gseq:    1,
		bank:    bank,
		rf:      regfile.New(cfg.IntRegs, cfg.FpRegs),
		q:       iq.NewPartitioned(bank, cfg.queuePartition(), n),
		disp:    core.NewDispatcher(bank, cfg.Policy, cfg.Width, cfg.DispatchBufCap, n),
		fus:     fu.MustNew(fu.DefaultConfig()),
		hier:    cfg.Hierarchy,
		btb:     bpred.NewBTB(2048, 2),
		sel:     fetch.NewSelector(cfg.FetchPolicy, n),
		scratch: make([]int32, 0, cfg.IQSize),
		events:  newEventWheel(defaultEventHorizon),
	}
	if c.hier == nil {
		c.hier = cache.DefaultHierarchy()
	}
	c.l1iLineMask = ^uint64(c.hier.L1I.Config().LineSize - 1)
	// The queue integrates its occupancy against the cycle counter
	// (bit-identical to per-cycle sampling), so no end-of-cycle sampling
	// call sits on the cycle path.
	c.q.BindCycleCounter(&c.cycle)
	// Wire the tag-broadcast sink: SetReady decrements the bank's
	// not-ready counters through the consumer bitmaps and notifies the
	// scheduler when an operand count reaches zero.
	c.rf.AttachWakeup(bank.Cap(), bank.NotReady, func(id int32) {
		//smt:trusted-id — SetReady fires only for ids on a consumer watch list, pruned on squash/commit before the slot recycles
		c.q.UOpReady(bank.Get(id))
	})
	c.runnableFn = func(t int) bool {
		ts := &c.threads[t]
		return ts.blocked <= c.cycle && !ts.fetchQFull() && c.gateAllows(t)
	}
	c.icountFn = func(t int) int {
		return c.threads[t].qLen + c.disp.Buffer(t).Len() + c.q.ThreadCount(t)
	}
	switch cfg.Deadlock {
	case DeadlockWatchdog:
		c.wdog = core.NewWatchdog(cfg.WatchdogLimit)
		c.disp.SetDABEnabled(false)
	case DeadlockNone:
		c.disp.SetDABEnabled(false)
	}
	if cfg.PerThreadIQCap > 0 {
		c.disp.SetPerThreadCap(cfg.PerThreadIQCap)
	}
	for _, s := range specs {
		if s.Reader == nil {
			return nil, fmt.Errorf("pipeline: thread %q has nil trace", s.Name)
		}
		c.rats = append(c.rats, rename.New(c.rf))
		c.robs = append(c.robs, rob.New(bank, int32(len(c.robs)*cfg.ROBPerThread), cfg.ROBPerThread))
		c.lsqs = append(c.lsqs, lsq.New(bank, cfg.LSQPerThread))
		c.preds = append(c.preds, bpred.New(c.btb))
		// Ring backing sized to the next power of two so the index math
		// is a mask; the logical capacity stays exactly as configured.
		ringCap := 1
		for ringCap < cfg.FetchQueueCap {
			ringCap <<= 1
		}
		c.threads = append(c.threads, threadState{
			name:   s.Name,
			stream: s.Reader,
			fetchQ: make([]fetchEntry, ringCap),
			qCap:   cfg.FetchQueueCap,
			qMask:  ringCap - 1,
		})
	}
	c.commitBase = make([]uint64, n)
	if cfg.Sanitize || testSanitize {
		c.san = simsan.New(simsan.Machine{
			Bank: c.bank,
			RF:   c.rf,
			IQ:   c.q,
			Disp: c.disp,
			ROBs: c.robs,
			RATs: c.rats,
			LSQs: c.lsqs,
		})
		// Violations inside the test suite fail-stop at the offending
		// cycle; explicitly requested sanitizing reports through Run.
		c.sanPanic = !cfg.Sanitize
	}
	return c, nil
}

// testSanitize force-enables the sanitizer for every core built by this
// package's test binary (set by an init in sanitize_test.go); it is
// always false in production builds.
var testSanitize bool

// Sanitizer returns the invariant checker, or nil when sanitizing is
// disabled.
func (c *Core) Sanitizer() *simsan.Checker { return c.san }

// SanitizerError returns the first invariant violation detected so far
// (nil when clean or when sanitizing is disabled). Run surfaces the same
// error; this accessor serves callers that drive Step directly.
func (c *Core) SanitizerError() error { return c.sanErr }

// sanitize runs the end-of-cycle invariant sweep.
//
//smt:coldpath — diagnostic sweep: runs only with a sanitizer attached, never in measured configurations
func (c *Core) sanitize() {
	err := c.san.CheckCycle(c.cycle)
	if err == nil {
		return
	}
	if c.sanErr == nil {
		c.sanErr = err
	}
	if c.sanPanic {
		panic(err)
	}
}

// Cycle returns the current cycle number.
func (c *Core) Cycle() int64 { return c.cycle }

// Committed returns thread t's committed instruction count.
func (c *Core) Committed(t int) uint64 { return c.threads[t].committed }

// MaxCommitted returns the largest post-warmup commit count across the
// core's threads — the quantity the paper's stopping rule tests.
func (c *Core) MaxCommitted() uint64 {
	var max uint64
	for t := range c.threads {
		if n := c.threads[t].committed - c.commitBase[t]; n > max {
			max = n
		}
	}
	return max
}

// Dispatcher exposes the dispatch stage (tests and examples inspect its
// statistics and DAB).
func (c *Core) Dispatcher() *core.Dispatcher { return c.disp }

// RegFile exposes the physical register file for invariant checks.
func (c *Core) RegFile() *regfile.File { return c.rf }

// RenameTable exposes thread t's rename table for invariant checks.
func (c *Core) RenameTable(t int) *rename.Table { return c.rats[t] }

// IQ exposes the issue queue for tests.
func (c *Core) IQ() *iq.Queue { return c.q }

// ROB exposes thread t's reorder buffer for invariant checks.
func (c *Core) ROB(t int) *rob.ROB { return c.robs[t] }

// SetCommitHook installs fn to observe every committed instruction in
// commit order. Intended for instrumentation and tests; fn must not
// mutate the UOp, and must not retain it — the record's bank slot is
// recycled by a later rename.
func (c *Core) SetCommitHook(fn func(*uop.UOp)) { c.onCommit = fn }

// ErrDeadlock is returned (wrapped) when the safety net detects that no
// instruction committed for the configured stall limit.
var ErrDeadlock = fmt.Errorf("pipeline: deadlock detected")

// Warmup advances the machine until any thread commits n instructions,
// then resets every statistic while keeping all microarchitectural state
// (caches, predictors, in-flight instructions) warm. It mirrors the
// paper's methodology of skipping each benchmark's initialization before
// measuring. Warmup may be called at most once, before Run.
func (c *Core) Warmup(n uint64) error {
	if n == 0 {
		return nil
	}
	if _, err := c.Run(n); err != nil {
		return fmt.Errorf("pipeline: warmup: %w", err)
	}
	c.disp.ResetStats()
	c.q.ResetStats()
	for _, cc := range []interface{ ResetStats() }{c.hier.L1I, c.hier.L1D, c.hier.L2} {
		cc.ResetStats()
	}
	for _, p := range c.preds {
		p.ResetStats()
	}
	if c.wdog != nil {
		c.wdog.ResetStats()
	}
	c.iqResidencySum, c.iqIssued = 0, 0
	c.gateFlushes = 0
	c.mshrStallEvents = 0
	c.broadcasts, c.dabIssues = 0, 0
	c.insertsBase = c.q.Inserts
	c.dabBase = c.disp.DAB().Inserts
	c.statsCycleBase = c.cycle
	for t := range c.threads {
		c.commitBase[t] = c.threads[t].committed
	}
	return nil
}

// Run advances the machine until any thread commits maxCommit
// instructions (the paper's stopping rule) and returns the collected
// results. Errors indicate a detected deadlock or the cycle-cap safety
// net; partial results accompany them.
func (c *Core) Run(maxCommit uint64) (metrics.Results, error) {
	if maxCommit == 0 {
		return c.Results(), fmt.Errorf("pipeline: zero commit budget")
	}
	maxCycles := c.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = int64(maxCommit)*400 + 10_000_000
	}
	stallLimit := c.cfg.StallLimit
	if stallLimit == 0 {
		stallLimit = 100_000
	}
	for {
		quiet := c.stepCycle()
		if c.sanErr != nil {
			return c.Results(), fmt.Errorf("pipeline: invariant violation: %w", c.sanErr)
		}
		for t := range c.threads {
			if c.threads[t].committed-c.commitBase[t] >= maxCommit {
				return c.Results(), nil
			}
		}
		if c.cycle-c.lastCommitCycle > stallLimit {
			return c.Results(), fmt.Errorf("%w: no commit for %d cycles (policy %s, deadlock mech %s)",
				ErrDeadlock, stallLimit, c.cfg.Policy, c.cfg.Deadlock)
		}
		if c.cycle >= maxCycles {
			return c.Results(), fmt.Errorf("pipeline: cycle cap %d reached with %d committed",
				maxCycles, c.totalCommitted())
		}
		if quiet && !c.forcePlain {
			// Bound the jump so the deadlock and cycle-cap checks above
			// still fire at exactly the cycle a plain loop reaches them.
			limit := c.lastCommitCycle + stallLimit + 1
			if maxCycles < limit {
				limit = maxCycles
			}
			c.fastForward(limit)
		}
	}
}

// Step advances the machine one cycle, in reverse pipeline order so each
// stage observes the previous cycle's state of its upstream neighbor.
//
//smt:hotpath
func (c *Core) Step() { c.stepCycle() }

// stepCycle is Step, additionally reporting whether the cycle was
// quiescent: no completion drained, nothing committed, issued,
// dispatched or renamed, no watchdog flush, and no thread eligible to
// fetch. Run uses a quiescent cycle as the fast-forward trigger (see
// fastForward).
//
// Two bodies implement it. An unsanitized core steps through stepGated,
// which skips writeback, issue and dispatch on cycles their O(1)
// predicates prove idle. A forcePlain core or one with a sanitizer
// attached steps through stepPlain, which runs every stage every cycle;
// on a sanitized core the plain walk also cross-checks stepGated's
// predicates each cycle, so the whole sanitized test suite
// differentially validates the gating.
//
//smt:hotpath
func (c *Core) stepCycle() bool {
	if c.san == nil && !c.forcePlain {
		return c.stepGated()
	}
	return c.stepPlain()
}

// stepGated runs one cycle, skipping each of writeback, issue and
// dispatch when its predicate says the stage has no work. Each predicate
// is evaluated immediately before the stage would run — never earlier —
// because upstream stages feed the predicates within the cycle:
// writeback's broadcasts grow the ready list issue consumes. A skipped
// stage's only replayed state is dispatch's idle accounting. Commit,
// rename and fetch run every cycle.
//
//smt:hotpath
func (c *Core) stepGated() bool {
	c.cycle++
	popped := 0
	if c.events.hasDue(c.cycle) {
		popped = c.writeback()
	}
	committed := c.commit()
	issued := 0
	if c.disp.DAB().Len() != 0 || c.q.ReadyLen() != 0 {
		issued = c.issue()
	}
	dispatched := 0
	if c.dispFrozen && popped == 0 && committed == 0 && issued == 0 {
		c.disp.ReplayIdle(1)
	} else {
		dispatched = c.disp.Run(c.cycle, c.q, c.rf, c.robs)
	}
	fired := false
	if c.wdog != nil && c.wdog.Tick(dispatched > 0) {
		c.flushAll()
		fired = true
	}
	renamed := c.rename()
	// The stages that feed dispatch and ran after it this cycle (flush,
	// rename) unfreeze it; writeback/commit/issue run before dispatch
	// next cycle and are checked there.
	c.dispFrozen = dispatched == 0 && !fired && renamed == 0
	fetchable := c.fetch()
	return popped == 0 && committed == 0 && issued == 0 && dispatched == 0 &&
		!fired && renamed == 0 && !fetchable
}

// stepPlain is the ungated walk: every stage but a frozen dispatch runs
// every cycle. It is the sanitizer's step and, with forcePlain, the
// plain reference the differential tests compare against. On a
// sanitized core it evaluates stepGated's writeback and issue
// predicates at exactly the point stepGated consults them: a predicate
// that says "idle" while its stage performs work would have made
// stepGated skip real work, and is reported through the sanitizer error
// channel the same cycle. It applies the dispatch freeze like
// stepGated, except on a forcePlain core, which never sets dispFrozen.
//
//smt:hotpath
func (c *Core) stepPlain() bool {
	c.cycle++
	verify := c.san != nil && !c.forcePlain
	dueWB := !verify || c.events.hasDue(c.cycle)
	popped := c.writeback()
	if !dueWB && popped != 0 {
		c.horizonFail("writeback", popped)
	}
	committed := c.commit()
	dueIs := !verify || c.disp.DAB().Len() != 0 || c.q.ReadyLen() != 0
	issued := c.issue()
	if !dueIs && issued != 0 {
		c.horizonFail("issue", issued)
	}
	dispatched := 0
	if c.dispFrozen && popped == 0 && committed == 0 && issued == 0 {
		c.disp.ReplayIdle(1)
	} else {
		dispatched = c.disp.Run(c.cycle, c.q, c.rf, c.robs)
	}
	fired := false
	if c.wdog != nil && c.wdog.Tick(dispatched > 0) {
		c.flushAll()
		fired = true
	}
	renamed := c.rename()
	c.dispFrozen = !c.forcePlain && dispatched == 0 && !fired && renamed == 0
	fetchable := c.fetch()
	if c.san != nil {
		c.sanitize()
	}
	return popped == 0 && committed == 0 && issued == 0 && dispatched == 0 &&
		!fired && renamed == 0 && !fetchable
}

// horizonFail reports a stale stage predicate: the gated step would have
// skipped a stage that had real work.
//
//smt:coldpath — fires only on a detected predicate violation under the sanitizer
func (c *Core) horizonFail(stage string, work int) {
	err := fmt.Errorf("pipeline: cycle %d: stale %s horizon: stage gated idle but performed %d units of work",
		c.cycle, stage, work)
	if c.sanErr == nil {
		c.sanErr = err
	}
	if c.sanPanic {
		panic(err)
	}
}

// fastForward runs after a quiescent cycle: with no due completions, an
// empty ready list and DAB, and no thread able to fetch or rename, every
// following cycle is an exact replay of the one just executed until some
// stimulus arrives — the next completion event, a fetch-block or
// redirect expiry, a fetch-queue head reaching its rename-ready cycle, or
// the watchdog expiry. No ROB head is complete: the quiet cycle committed
// nothing although commit retires completed heads while its budget
// lasts, and only writeback, which runs before commit, completes
// instructions. The machine therefore jumps to the cycle before the
// earliest stimulus (also bounded by `limit`, the caller's
// deadlock/cycle-cap deadline) and replays the skipped cycles' only
// state: the dispatcher's stall accounting, the watchdog countdown, and
// the four round-robin rotations (the queue's occupancy integral follows
// the cycle counter by itself). A forcePlain core never fast-forwards:
// it is the reference the jump is tested against.
//
//smt:hotpath
func (c *Core) fastForward(limit int64) {
	if c.disp.DAB().Len() != 0 || c.q.ReadyLen() != 0 {
		// A waiting instruction retries issue every cycle against
		// time-dependent conditions (FU frees, LSQ stores, MSHRs).
		return
	}
	next := limit
	if due, ok := c.events.nextDue(c.cycle); ok && due < next {
		next = due
	}
	if c.wdog != nil {
		if fire := c.cycle + c.wdog.Remaining(); fire < next {
			next = fire
		}
	}
	for t := range c.threads {
		ts := &c.threads[t]
		if ts.blocked > c.cycle && ts.blocked < next {
			next = ts.blocked
		}
		if ts.qLen > 0 {
			if ra := ts.fetchQ[ts.qHead].readyAt; ra > c.cycle && ra < next {
				next = ra
			}
		}
	}
	k := next - 1 - c.cycle
	if k <= 0 {
		return
	}
	c.cycle += k
	c.disp.ReplayIdle(k)
	if c.wdog != nil {
		c.wdog.SkipIdle(k)
	}
	kt := int(k % int64(c.nthreads))
	c.commitRR = (c.commitRR + kt) % c.nthreads
	c.renameRR = (c.renameRR + kt) % c.nthreads
	c.sel.SkipIdle(k)
}

// writeback drains due completion events: results become visible to the
// scheduler and the instructions commit-eligible. Returns the number of
// events drained (stale ones included — they mutate the wheel).
//
//smt:hotpath
func (c *Core) writeback() int {
	popped := 0
	for {
		id, seq, ok := c.events.popDue(c.cycle)
		if !ok {
			break
		}
		popped++
		u := c.bank.Get(id)
		if u.Squashed || u.GSeq != seq {
			continue // annulled by a flush, or the slot was recycled
		}
		u.Completed = true
		u.CompletedAt = c.cycle
		c.rf.SetReady(u.Dest)
		if u.Dest.Valid() {
			c.broadcasts++ // one wakeup-bus tag broadcast
		}
		c.disp.OnComplete(u)
		if u.IsLoad() {
			c.noteLoadDone(u)
		}
		if u.IsBranch() && u.Mispred {
			// Resolution: the front end may refetch down the correct
			// path after the redirect penalty.
			c.threads[u.Thread].blocked = c.cycle + c.cfg.RedirectPenalty
		}
	}
	return popped
}

// commit retires completed instructions in program order per thread, up
// to the machine width across threads; the scan origin rotates for
// fairness.
//
//smt:hotpath
func (c *Core) commit() int {
	committed := 0
	budget := c.cfg.Width
	t := c.commitRR
	c.commitRR++
	if c.commitRR == c.nthreads {
		c.commitRR = 0
	}
	for i := 0; i < c.nthreads && budget > 0; i, t = i+1, t+1 {
		if t >= c.nthreads {
			t = 0
		}
		for budget > 0 {
			u := c.robs[t].Head()
			if u == nil || !u.Completed {
				break
			}
			c.robs[t].PopHead()
			if u.Inst.Class.IsMem() {
				c.lsqs[t].Release(u)
			}
			if u.IsStore() {
				c.hier.StoreCommit(u.Inst.Addr)
			}
			c.rats[t].Commit(u)
			c.threads[t].committed++
			c.lastCommitCycle = c.cycle
			if c.onCommit != nil {
				c.onCommit(u)
			}
			budget--
			committed++
		}
	}
	return committed
}

// issue selects up to width ready instructions. Instructions in the
// deadlock-avoidance buffer take precedence; while the DAB is occupied,
// IQ selection is disabled (the paper's evaluated arbitration).
//
//smt:hotpath
func (c *Core) issue() int {
	issued := 0
	budget := c.cfg.Width
	dab := c.disp.DAB()
	if dab.Len() > 0 {
		c.scratch = append(c.scratch[:0], dab.Entries()...)
		for _, id := range c.scratch {
			if budget == 0 {
				break
			}
			//smt:trusted-id — dab.Entries() lists only current occupants; Remove below keeps the set exact within this loop
			u := c.bank.Get(id)
			if !c.fus.TryIssue(u.Inst.Class, c.cycle) {
				continue
			}
			dab.Remove(u)
			ld := lsq.LoadGoesToCache
			if u.IsLoad() {
				ld = c.lsqs[u.Thread].CheckLoad(u)
			}
			c.issueUOp(u, false, ld)
			budget--
			issued++
		}
		return issued
	}
	for _, id := range c.q.ReadyOrdered(c.scratch, c.cfg.Select, c.cycle) {
		if budget == 0 {
			break
		}
		u := c.bank.Get(id)
		if !u.InIQ || u.Squashed {
			// A gate flush triggered by an earlier issue this cycle
			// removed this instruction from the queue.
			continue
		}
		ld := lsq.LoadGoesToCache
		if u.IsLoad() {
			if ld = c.lsqs[u.Thread].CheckLoad(u); ld == lsq.LoadBlocked {
				continue // older same-address store data not yet produced
			}
			if c.cfg.MSHRs > 0 && c.inFlightMisses >= c.cfg.MSHRs &&
				!c.hier.L1D.Contains(u.Inst.Addr) {
				c.mshrStallEvents++
				continue // no miss-status register free; retry next cycle
			}
		}
		if !c.fus.TryIssue(u.Inst.Class, c.cycle) {
			continue
		}
		c.q.Remove(u)
		c.issueUOp(u, true, ld)
		budget--
		issued++
	}
	return issued
}

// issueUOp starts execution: the result (and wakeup of dependents) is
// scheduled at issue + latency, which lets single-cycle dependents issue
// back to back; loads add the cache hierarchy's miss penalty unless they
// forward from an older store. ld is the caller's already-computed LSQ
// disposition for loads (callers check it anyway, so recomputing the
// store scan here would double the per-issue LSQ cost); it is ignored
// for non-loads.
//
//smt:hotpath
func (c *Core) issueUOp(u *uop.UOp, fromIQ bool, ld lsq.LoadDisposition) {
	u.Issued = true
	u.IssuedAt = c.cycle
	if fromIQ {
		c.iqResidencySum += uint64(c.cycle - u.DispatchedAt)
		c.iqIssued++
	} else {
		c.dabIssues++
	}
	lat := int64(isa.Latency[u.Inst.Class])
	if u.IsLoad() && ld != lsq.LoadForwards {
		extra := c.hier.LoadLatencyExtra(u.Inst.Addr)
		lat += int64(extra)
		c.noteLoadIssue(u, extra)
	}
	if lat < 1 {
		lat = 1
	}
	c.events.schedule(c.cycle, c.cycle+lat, u.GSeq, u.ID)
}

// rename consumes front-end entries in program order per thread: operands
// are renamed and ROB/LSQ entries allocated (always in order — the
// invariant out-of-order dispatch relies on), then the instruction joins
// its thread's dispatch buffer.
//
//smt:hotpath
func (c *Core) rename() int {
	renamed := 0
	budget := c.cfg.Width
	t := c.renameRR
	c.renameRR++
	if c.renameRR == c.nthreads {
		c.renameRR = 0
	}
	for i := 0; i < c.nthreads; i, t = i+1, t+1 {
		if budget == 0 {
			break
		}
		if t >= c.nthreads {
			t = 0
		}
		ts := &c.threads[t]
		for {
			e := ts.fetchQPeek()
			if e == nil {
				break
			}
			if e.readyAt > c.cycle || budget == 0 {
				break
			}
			if !c.disp.Buffer(t).CanPush() || !c.robs[t].CanAlloc(1) {
				break
			}
			isMem := e.inst.Class.IsMem()
			if isMem && !c.lsqs[t].CanAlloc(1) {
				break
			}
			if e.inst.HasDest() && !c.rf.CanAlloc(e.inst.Dest.Class, 1) {
				break
			}
			// The ROB slot is the uop's identity: allocating the entry
			// hands back the freshly reset record to fill. Inst is copied
			// straight from the fetch-queue slot — exactly once.
			u := c.robs[t].Alloc()
			u.Inst = e.inst
			u.Thread = t
			u.GSeq = c.gseq
			u.RenamedAt = c.cycle
			u.PredTaken = e.predTaken
			u.PredTarget = e.predTarget
			u.Mispred = e.mispred
			ts.fetchQPop()
			c.gseq++
			c.rats[t].Rename(u)
			// Subscribe to each pending source's consumer bitmap; the
			// counter equals NumSrcNotReady at this instant and every
			// later tag broadcast keeps it in sync.
			nr := int8(0)
			for _, s := range u.Srcs {
				if c.rf.Watch(s, u.ID) {
					nr++
				}
			}
			c.bank.NotReady[u.ID] = nr
			if isMem {
				c.lsqs[t].Alloc(u)
			}
			c.disp.Buffer(t).Push(u)
			budget--
			renamed++
		}
	}
	return renamed
}

// fetch pulls instructions from up to FetchThreads thread traces chosen
// by the fetch policy, up to the machine width in total. Fetch for a
// thread breaks on a taken branch, a mispredicted branch (until
// resolution), an I-cache miss (until the block arrives), or a full
// fetch queue. It reports whether any thread was eligible at all — an
// eligible thread always mutates state (it either fetches or starts an
// I-cache block fill), so eligibility is the fast-forward's "fetch is
// active" signal.
//
//smt:hotpath
func (c *Core) fetch() bool {
	budget := c.cfg.Width
	threadsUsed := 0
	active := false
	for _, t := range c.sel.Order(c.runnableFn, c.icountFn) {
		if budget == 0 || threadsUsed == c.cfg.FetchThreads {
			break
		}
		active = true
		budget -= c.fetchThread(t, budget)
		threadsUsed++
	}
	return active
}

//smt:hotpath
func (c *Core) fetchThread(t, budget int) int {
	ts := &c.threads[t]
	lineMask := c.l1iLineMask
	n := 0
	for n < budget {
		if ts.fetchQFull() {
			break
		}
		in, prefetched := ts.nextInst()
		if !prefetched {
			blk := in.PC & lineMask
			if !ts.lastBlockValid || blk != ts.lastBlock {
				ts.lastBlock = blk
				ts.lastBlockValid = true
				if extra := c.hier.FetchLatencyExtra(in.PC); extra > 0 {
					// The block is being filled; hold the instruction
					// and resume when it arrives.
					ts.pendingInst = in
					ts.pendingValid = true
					ts.blocked = c.cycle + int64(extra)
					break
				}
			}
		}
		e := ts.fetchQPushSlot()
		e.inst = in
		e.readyAt = c.cycle + c.cfg.FrontEndDelay
		e.predTaken, e.predTarget, e.mispred = false, 0, false
		if in.Class == isa.Branch {
			pt, ptg := c.preds[t].Predict(in.PC)
			correct := c.preds[t].Resolve(in.PC, pt, ptg, in.Taken, in.Target)
			e.predTaken, e.predTarget, e.mispred = pt, ptg, !correct
			n++
			if !correct {
				// Fetch stalls until the branch resolves in execution.
				ts.blocked = farFuture
				ts.lastBlockValid = false
				break
			}
			if in.Taken {
				ts.lastBlockValid = false // next fetch starts a new block
				break
			}
			continue
		}
		n++
	}
	return n
}

// flushAll implements the watchdog recovery: every thread's in-flight
// instructions (renamed and fetched-but-unrenamed alike) are squashed,
// rename state rewinds to the committed architectural map, and the
// squashed instructions are queued for refetch in program order.
//
//smt:coldpath — watchdog recovery: fires on detected deadlock, orders of magnitude off the cycle cadence
func (c *Core) flushAll() {
	for t := 0; t < c.nthreads; t++ {
		ts := &c.threads[t]
		c.disp.DrainThread(t)
		c.q.DrainThread(t)
		robUops := c.robs[t].DrainAll()
		c.lsqs[t].DrainAll()
		c.rats[t].SquashAll()

		insts := make([]isa.Inst, 0, len(robUops)+ts.qLen+1+len(ts.replay))
		for _, u := range robUops {
			u.Squashed = true
			c.unwatchSquashed(u)
			if u.Dest.Valid() {
				c.rf.Free(u.Dest)
			}
			c.forgetLoad(u)
			insts = append(insts, u.Inst)
		}
		for ts.qLen > 0 {
			insts = append(insts, ts.fetchQPeek().inst)
			ts.fetchQPop()
		}
		if ts.pendingValid {
			insts = append(insts, ts.pendingInst)
			ts.pendingValid = false
		}
		ts.replay = append(insts, ts.replay...)
		ts.blocked = c.cycle + c.cfg.FlushRefill
		ts.lastBlockValid = false
	}
}

// unwatchSquashed drops a squashed uop's pending wakeup registrations
// from the consumer bitmaps so its bank slot can be recycled without a
// later broadcast decrementing the new occupant's counter. Idempotent.
func (c *Core) unwatchSquashed(u *uop.UOp) {
	for _, s := range u.Srcs {
		c.rf.Unwatch(s, u.ID)
	}
}

func (c *Core) totalCommitted() uint64 {
	var sum uint64
	for t := range c.threads {
		sum += c.threads[t].committed - c.commitBase[t]
	}
	return sum
}

// Results assembles the metrics of the run so far.
//
// The power accumulator (power.Events) is filled here too, but as a
// one-shot composite literal, which statescope permits without a grant:
// only incremental field writes need a declared stage.
//
//smt:stage metrics — results assembly is the single writer that fills the accumulator it returns
func (c *Core) Results() metrics.Results {
	cycles := c.cycle - c.statsCycleBase
	r := metrics.Results{
		Cycles:    cycles,
		Committed: c.totalCommitted(),
	}
	if cycles > 0 {
		r.IPC = float64(r.Committed) / float64(cycles)
	}
	ds := c.disp.Stats()
	for t := range c.threads {
		ts := &c.threads[t]
		tr := metrics.ThreadResult{
			Benchmark:      ts.name,
			Committed:      ts.committed - c.commitBase[t],
			MispredictRate: c.preds[t].MispredictRate(),
			NDIBlockCycles: ds.NDIBlockCycles[t],
		}
		if cycles > 0 {
			tr.IPC = float64(ts.committed-c.commitBase[t]) / float64(cycles)
		}
		r.Threads = append(r.Threads, tr)
	}
	if ds.Cycles > 0 {
		r.DispatchStallAllNDI = float64(ds.StallAllNDI) / float64(ds.Cycles)
		r.DispatchStallNDIWeak = float64(ds.StallNDIWeak) / float64(ds.Cycles)
		r.DispatchStallAllAny = float64(ds.StallAllAny) / float64(ds.Cycles)
	}
	if c.iqIssued > 0 {
		r.IQResidency = float64(c.iqResidencySum) / float64(c.iqIssued)
	}
	r.IQOccupancy = c.q.MeanOccupancy()
	if ds.PiledSampled > 0 {
		r.HDIPiledFrac = float64(ds.PiledHDI) / float64(ds.PiledSampled)
	}
	if ds.HDIDispatched > 0 {
		r.HDIDepOnNDIFrac = float64(ds.HDIDepOnNDI) / float64(ds.HDIDispatched)
	}
	r.HDIDispatched = ds.HDIDispatched
	r.DABInserts = c.disp.DAB().Inserts
	r.GateFlushes = c.gateFlushes
	r.MSHRStallEvents = c.mshrStallEvents
	if c.wdog != nil {
		r.WatchdogFlushes = c.wdog.Expiries
	}
	// Analytical scheduler energy (package power), using the measured
	// event counts and the queue's comparator inventory.
	part := c.q.Partition()
	ev := power.Events{
		Cycles:        cycles,
		Committed:     r.Committed,
		TagBroadcasts: c.broadcasts,
		DispatchesIQ:  c.q.Inserts - c.insertsBase,
		IssuedIQ:      c.iqIssued,
		DABAccesses:   (c.disp.DAB().Inserts - c.dabBase) + c.dabIssues,
		MeanOccupancy: r.IQOccupancy,
	}
	bd := power.Estimate(part, power.DefaultWeights(), ev)
	r.SchedulerEnergyPerInst = bd.PerInstruction(r.Committed)
	r.SchedulerEDP = power.EDP(bd, ev)
	r.Comparators = power.Comparators(part)

	r.L1DMissRate = c.hier.L1D.Stats().MissRate()
	r.L2MissRate = c.hier.L2.Stats().MissRate()
	r.L1IMissRate = c.hier.L1I.Stats().MissRate()
	return r
}
