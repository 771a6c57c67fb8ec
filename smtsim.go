// Package smtsim is a simultaneous-multithreading (SMT) processor
// simulator reproducing Sharkey & Ponomarev, "Balancing ILP and TLP in
// SMT Architectures through Out-of-Order Instruction Dispatch" (ICPP
// 2006).
//
// The simulator models an 8-wide SMT machine (the paper's Table 1
// configuration): shared issue queue, physical register files, functional
// units and caches; per-thread rename tables, reorder buffers, load/store
// queues and branch predictors. Three scheduler designs are provided:
//
//   - Traditional: two tag comparators per issue-queue entry, in-order
//     dispatch within each thread.
//   - TwoOpBlock: one comparator per entry; an instruction with two
//     non-ready sources blocks its thread at dispatch (HPCA'06 design).
//   - TwoOpOOOD: TwoOpBlock plus the paper's contribution — out-of-order
//     dispatch within each thread, with a deadlock-avoidance buffer.
//
// Workloads are deterministic synthetic kernels standing in for the SPEC
// CPU2000 benchmarks of the paper's mix tables; see DESIGN.md for the
// substitution rationale.
//
// A minimal run:
//
//	res, err := smtsim.Run(smtsim.Config{
//		Benchmarks:      []string{"equake", "gzip"},
//		IQSize:          64,
//		Scheduler:       smtsim.TwoOpOOOD,
//		MaxInstructions: 200_000,
//	})
package smtsim

import (
	"fmt"

	"smtsim/internal/cache"
	"smtsim/internal/core"
	"smtsim/internal/fetch"
	"smtsim/internal/iq"
	"smtsim/internal/metrics"
	"smtsim/internal/pipeline"
	"smtsim/internal/tracefile"
	"smtsim/internal/workload"
)

// Scheduler selects one of the studied scheduler/dispatch designs.
type Scheduler uint8

const (
	// Traditional is the baseline SMT scheduler: two tag comparators per
	// IQ entry, in-order dispatch per thread.
	Traditional Scheduler = iota
	// TwoOpBlock blocks dispatch of instructions with two non-ready
	// source operands (one comparator per IQ entry).
	TwoOpBlock
	// TwoOpOOOD augments TwoOpBlock with out-of-order dispatch within
	// each thread — the paper's proposal.
	TwoOpOOOD
	// TwoOpOOODFiltered is the idealized ablation that additionally
	// withholds NDI-dependent instructions at zero modeled cost.
	TwoOpOOODFiltered
	// TagElimination is a statically partitioned mixed-comparator queue
	// (Ernst & Austin style) with in-order dispatch — a related-work
	// reference point.
	TagElimination
	// TagEliminationOOOD applies the paper's out-of-order dispatch to
	// the tag-elimination queue.
	TagEliminationOOOD
)

// String names the scheduler as in the harness output.
func (s Scheduler) String() string { return s.policy().String() }

func (s Scheduler) policy() core.Policy {
	switch s {
	case TwoOpBlock:
		return core.TwoOpBlock
	case TwoOpOOOD:
		return core.TwoOpOOOD
	case TwoOpOOODFiltered:
		return core.TwoOpOOODFiltered
	case TagElimination:
		return core.TagElim
	case TagEliminationOOOD:
		return core.TagElimOOOD
	default:
		return core.InOrder
	}
}

// ParseScheduler converts a scheduler name (as printed by String) back
// to a Scheduler value.
func ParseScheduler(name string) (Scheduler, error) {
	for _, s := range []Scheduler{Traditional, TwoOpBlock, TwoOpOOOD, TwoOpOOODFiltered, TagElimination, TagEliminationOOOD} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("smtsim: unknown scheduler %q", name)
}

// Schedulers lists the three designs the paper compares, in presentation
// order.
var Schedulers = []Scheduler{Traditional, TwoOpBlock, TwoOpOOOD}

// DeadlockMechanism selects the out-of-order-dispatch deadlock guard.
type DeadlockMechanism uint8

const (
	// DeadlockDAB uses the deadlock-avoidance buffer (the paper's
	// evaluated mechanism, the default).
	DeadlockDAB DeadlockMechanism = iota
	// DeadlockWatchdog uses the watchdog-timer flush alternative.
	DeadlockWatchdog
	// DeadlockNone disables both; deadlocks are then reported as errors.
	DeadlockNone
)

// Config describes one simulation run.
type Config struct {
	// Benchmarks names the workload of each hardware thread; see
	// BenchmarkNames for the roster. One entry per thread.
	Benchmarks []string

	// TraceFiles, when non-empty, replaces Benchmarks: each file (in
	// the tracefile format, see cmd/smttrace) drives one hardware
	// thread, replayed in a loop. Thread names are the file paths.
	TraceFiles []string

	// IQSize is the shared issue-queue capacity (the paper sweeps 32,
	// 48, 64, 96, 128). Defaults to 64.
	IQSize int

	// Scheduler selects the design under study.
	Scheduler Scheduler

	// MaxInstructions stops the run once any thread commits this many
	// instructions (the paper's stopping rule). Defaults to 200_000.
	MaxInstructions uint64

	// Seed perturbs the workloads' data addresses and branch outcomes;
	// the same (Config, Seed) pair always produces identical results.
	Seed uint64

	// WarmupInstructions, when non-zero, runs the machine until any
	// thread commits this many instructions and then resets all
	// statistics, so measurement starts from warm caches and predictors
	// (the paper skips initialization with SimPoints). The measured run
	// of MaxInstructions follows.
	WarmupInstructions uint64

	// Deadlock selects the OOOD deadlock mechanism (default DAB).
	Deadlock DeadlockMechanism

	// DispatchBufferCap overrides the per-thread renamed-instruction
	// buffer capacity (default 16) — the window out-of-order dispatch
	// scans for hidden dispatchable instructions.
	DispatchBufferCap int

	// IQPartition optionally sets a mixed-comparator queue: entries
	// with zero, one, and two tag comparators respectively. Overrides
	// IQSize when non-zero (capacity = sum of the classes).
	IQPartition [3]int

	// RoundRobinFetch replaces the default ICOUNT fetch policy.
	RoundRobinFetch bool

	// ThreadRotateSelect replaces oldest-first issue selection with a
	// per-cycle thread-rotating arbiter (a cheap position-style select).
	ThreadRotateSelect bool

	// PerThreadIQCap statically partitions the issue queue among threads
	// (0 = fully shared, the paper's configuration).
	PerThreadIQCap int

	// FetchGate layers a miss-driven fetch-gating policy (Section 6
	// related work) over the thread selector: "" or "none" (baseline),
	// "stall", "flush", or "data-gate".
	FetchGate string

	// ROBPerThread and LSQPerThread override the Table 1 window sizes
	// when non-zero (96 and 48).
	ROBPerThread int
	LSQPerThread int

	// WatchdogLimit overrides the watchdog countdown (cycles) when
	// Deadlock == DeadlockWatchdog.
	WatchdogLimit int64

	// MSHRs bounds outstanding L1 data-cache misses per core (0 =
	// unlimited, the default trace-driven simplification).
	MSHRs int

	// MemoryLatency overrides the main-memory access latency in cycles
	// (0 = Table 1's 150). The cache geometries stay fixed.
	MemoryLatency int

	// Sanitize enables the cycle-granular invariant sanitizer (package
	// internal/simsan): every structural contract of the machine is
	// re-validated each simulated cycle and the first violation is
	// returned as an error. Read-only — a clean sanitized run is
	// bit-identical to an unsanitized one — but roughly an order of
	// magnitude slower; meant for tests, fuzzing, and debugging.
	Sanitize bool
}

// ThreadResult reports one thread's outcome.
type ThreadResult struct {
	Benchmark      string
	Committed      uint64
	IPC            float64
	MispredictRate float64
}

// Result reports a simulation run. The statistics mirror those the paper
// discusses; see the field comments in internal/metrics for definitions.
type Result struct {
	Cycles    int64
	Committed uint64
	IPC       float64
	Threads   []ThreadResult

	// DispatchStallAllNDI is the fraction of cycles (among cycles with
	// dispatchable work) in which every thread was blocked by the
	// two-non-ready-operand condition (Section 3's statistic).
	DispatchStallAllNDI float64
	// DispatchStallNDIWeak is the looser variant that ignores threads
	// starved upstream of dispatch.
	DispatchStallNDIWeak float64
	// DispatchStallAllAny is the fraction of work cycles with zero
	// dispatches for any reason.
	DispatchStallAllAny float64

	// IQResidency is the mean dispatch-to-issue latency in cycles.
	IQResidency float64
	// IQOccupancy is the mean number of occupied IQ entries.
	IQOccupancy float64

	// HDIPiledFrac is the fraction of instructions behind a blocking NDI
	// that were themselves dispatchable (paper: ~90%).
	HDIPiledFrac float64
	// HDIDepOnNDIFrac is the fraction of out-of-order dispatches that
	// depended on a blocked NDI (paper: ~10%).
	HDIDepOnNDIFrac float64
	// HDIDispatched counts out-of-order dispatches.
	HDIDispatched uint64

	// DABInserts counts deadlock-avoidance-buffer captures;
	// WatchdogFlushes counts watchdog pipeline flushes; GateFlushes
	// counts FLUSH fetch-gate partial squashes.
	DABInserts      uint64
	WatchdogFlushes uint64
	GateFlushes     uint64
	// MSHRStallEvents counts load issues rejected for want of a free
	// miss-status register (only with finite MSHRs configured).
	MSHRStallEvents uint64

	// SchedulerEnergyPerInst, SchedulerEDP, and Comparators quantify
	// the scheduling-logic cost (package internal/power): relative
	// energy per instruction, energy-delay product, and the queue's
	// total tag comparators.
	SchedulerEnergyPerInst float64
	SchedulerEDP           float64
	Comparators            int

	// Cache behaviour.
	L1DMissRate float64
	L2MissRate  float64
	L1IMissRate float64
}

// fromMetrics converts the internal result record.
func fromMetrics(m metrics.Results) Result {
	r := Result{
		Cycles:                 m.Cycles,
		Committed:              m.Committed,
		IPC:                    m.IPC,
		DispatchStallAllNDI:    m.DispatchStallAllNDI,
		DispatchStallNDIWeak:   m.DispatchStallNDIWeak,
		DispatchStallAllAny:    m.DispatchStallAllAny,
		IQResidency:            m.IQResidency,
		IQOccupancy:            m.IQOccupancy,
		HDIPiledFrac:           m.HDIPiledFrac,
		HDIDepOnNDIFrac:        m.HDIDepOnNDIFrac,
		HDIDispatched:          m.HDIDispatched,
		DABInserts:             m.DABInserts,
		WatchdogFlushes:        m.WatchdogFlushes,
		GateFlushes:            m.GateFlushes,
		MSHRStallEvents:        m.MSHRStallEvents,
		SchedulerEnergyPerInst: m.SchedulerEnergyPerInst,
		SchedulerEDP:           m.SchedulerEDP,
		Comparators:            m.Comparators,
		L1DMissRate:            m.L1DMissRate,
		L2MissRate:             m.L2MissRate,
		L1IMissRate:            m.L1IMissRate,
	}
	for _, t := range m.Threads {
		r.Threads = append(r.Threads, ThreadResult{
			Benchmark:      t.Benchmark,
			Committed:      t.Committed,
			IPC:            t.IPC,
			MispredictRate: t.MispredictRate,
		})
	}
	return r
}

// PerThreadIPCs returns the per-thread IPC vector.
func (r Result) PerThreadIPCs() []float64 {
	out := make([]float64, len(r.Threads))
	for i, t := range r.Threads {
		out[i] = t.IPC
	}
	return out
}

// newCore builds the pipeline for cfg.
func newCore(cfg Config) (*pipeline.Core, error) {
	if len(cfg.Benchmarks) == 0 && len(cfg.TraceFiles) == 0 {
		return nil, fmt.Errorf("smtsim: no benchmarks or trace files configured")
	}
	if len(cfg.Benchmarks) > 0 && len(cfg.TraceFiles) > 0 {
		return nil, fmt.Errorf("smtsim: Benchmarks and TraceFiles are mutually exclusive")
	}
	// Reject negative knobs here with a descriptive error; deeper layers
	// treat their inputs as already-validated and panic on nonsense.
	switch {
	case cfg.IQSize < 0:
		return nil, fmt.Errorf("smtsim: negative IQ size %d", cfg.IQSize)
	case cfg.IQPartition[0] < 0 || cfg.IQPartition[1] < 0 || cfg.IQPartition[2] < 0:
		return nil, fmt.Errorf("smtsim: negative IQ partition class in %v", cfg.IQPartition)
	case cfg.DispatchBufferCap < 0:
		return nil, fmt.Errorf("smtsim: negative dispatch buffer capacity %d", cfg.DispatchBufferCap)
	case cfg.PerThreadIQCap < 0:
		return nil, fmt.Errorf("smtsim: negative per-thread IQ cap %d", cfg.PerThreadIQCap)
	case cfg.ROBPerThread < 0 || cfg.LSQPerThread < 0:
		return nil, fmt.Errorf("smtsim: negative ROB/LSQ capacity %d/%d", cfg.ROBPerThread, cfg.LSQPerThread)
	case cfg.WatchdogLimit < 0:
		return nil, fmt.Errorf("smtsim: negative watchdog limit %d", cfg.WatchdogLimit)
	case cfg.MSHRs < 0:
		return nil, fmt.Errorf("smtsim: negative MSHR count %d", cfg.MSHRs)
	case cfg.MemoryLatency < 0:
		return nil, fmt.Errorf("smtsim: negative memory latency %d", cfg.MemoryLatency)
	}
	pcfg := pipeline.DefaultConfig()
	if cfg.IQSize > 0 {
		pcfg.IQSize = cfg.IQSize
	}
	pcfg.Policy = cfg.Scheduler.policy()
	switch cfg.Deadlock {
	case DeadlockWatchdog:
		pcfg.Deadlock = pipeline.DeadlockWatchdog
	case DeadlockNone:
		pcfg.Deadlock = pipeline.DeadlockNone
	}
	if cfg.DispatchBufferCap > 0 {
		pcfg.DispatchBufCap = cfg.DispatchBufferCap
	}
	if p := (iq.Partition{cfg.IQPartition[0], cfg.IQPartition[1], cfg.IQPartition[2]}); p.Total() > 0 {
		pcfg.IQPartition = p
		pcfg.IQSize = p.Total()
	}
	if cfg.RoundRobinFetch {
		pcfg.FetchPolicy = fetch.RoundRobin
	}
	if cfg.ThreadRotateSelect {
		pcfg.Select = iq.ThreadRotate
	}
	if cfg.PerThreadIQCap > 0 {
		pcfg.PerThreadIQCap = cfg.PerThreadIQCap
	}
	if cfg.FetchGate != "" {
		g, err := pipeline.ParseFetchGate(cfg.FetchGate)
		if err != nil {
			return nil, err
		}
		pcfg.FetchGate = g
	}
	if cfg.ROBPerThread > 0 {
		pcfg.ROBPerThread = cfg.ROBPerThread
	}
	if cfg.LSQPerThread > 0 {
		pcfg.LSQPerThread = cfg.LSQPerThread
	}
	if cfg.WatchdogLimit > 0 {
		pcfg.WatchdogLimit = cfg.WatchdogLimit
	}
	if cfg.MSHRs > 0 {
		pcfg.MSHRs = cfg.MSHRs
	}
	pcfg.Sanitize = cfg.Sanitize
	if cfg.MemoryLatency > 0 {
		h := cache.DefaultHierarchy()
		h.MemCycles = cfg.MemoryLatency
		pcfg.Hierarchy = h
	}

	var specs []pipeline.ThreadSpec
	for t, name := range cfg.Benchmarks {
		prog, err := workload.CompileBenchmark(name)
		if err != nil {
			return nil, err
		}
		// Distinct per-thread seeds: two copies of the same benchmark in
		// one mix see different data and branch outcomes.
		specs = append(specs, pipeline.ThreadSpec{
			Name:   name,
			Reader: prog.NewStream(cfg.Seed ^ (uint64(t+1) * 0x9E3779B97F4A7C15)),
		})
	}
	for _, path := range cfg.TraceFiles {
		tr, err := tracefile.Load(path)
		if err != nil {
			return nil, err
		}
		specs = append(specs, pipeline.ThreadSpec{Name: path, Reader: tr.Stream(true)})
	}
	return pipeline.New(pcfg, specs)
}

// Run executes one simulation and returns its results.
func Run(cfg Config) (Result, error) {
	c, err := newCore(cfg)
	if err != nil {
		return Result{}, err
	}
	budget := cfg.MaxInstructions
	if budget == 0 {
		budget = 200_000
	}
	if err := c.Warmup(cfg.WarmupInstructions); err != nil {
		return Result{}, err
	}
	m, err := c.Run(budget)
	return fromMetrics(m), err
}

// BenchmarkNames lists the modeled SPEC CPU2000 benchmark names.
func BenchmarkNames() []string { return workload.Names() }

// BenchmarkClass returns "low", "med", or "high" — the paper's ILP
// classification of the benchmark.
func BenchmarkClass(name string) (string, error) {
	c, err := workload.Class(name)
	if err != nil {
		return "", err
	}
	return c.String(), nil
}

// Mixes returns the paper's workload mixes (Tables 2-4) for the given
// thread count (2, 3, or 4): twelve named benchmark lists.
func Mixes(threads int) ([][]string, []string, error) {
	ms, err := workload.MixesFor(threads)
	if err != nil {
		return nil, nil, err
	}
	var lists [][]string
	var names []string
	for _, m := range ms {
		lists = append(lists, append([]string(nil), m.Benchmarks...))
		names = append(names, m.Name)
	}
	return lists, names, nil
}

// HarmonicMean exposes the aggregation used for the paper's cross-mix
// summaries.
func HarmonicMean(xs []float64) float64 { return metrics.HarmonicMean(xs) }

// FairnessMetric computes the harmonic mean of weighted IPCs (Luo et
// al.): each thread's SMT IPC divided by its single-threaded IPC on the
// same machine, harmonically averaged.
func FairnessMetric(smtIPCs, aloneIPCs []float64) (float64, error) {
	return metrics.HarmonicWeightedIPC(smtIPCs, aloneIPCs)
}
