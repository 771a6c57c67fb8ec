package pipeline

import (
	"fmt"
	"sync"
	"testing"

	icore "smtsim/internal/core"
	"smtsim/internal/synth"
	"smtsim/internal/uop"
)

// commitRec identifies one committed instruction: its per-thread trace
// sequence number and fetch PC.
type commitRec struct {
	seq uint64
	pc  uint64
}

// fuzzProfile maps a 2-bit selector to one of the paper's three ILP
// classes.
func fuzzProfile(kind uint8, name string) synth.Profile {
	switch kind % 3 {
	case 0:
		return synth.LowILPProfile(name)
	case 1:
		return synth.MedILPProfile(name)
	default:
		return synth.HighILPProfile(name)
	}
}

// runFuzzConfig runs one (scheduler, machine) point of a fuzz case and
// returns the cycle count and the per-thread committed streams. plain
// selects the forcePlain reference over the fast machine (the sanitized
// walk with its dispatch freeze and fastForward). Every core runs under
// the invariant sanitizer (test-wide testSanitize), so structural
// violations fail-stop here before the metamorphic comparison even
// happens.
func runFuzzConfig(t *testing.T, cfg Config, profiles []synth.Profile, seed uint64,
	budget uint64, plain bool) (cycles int64, streams [][]commitRec) {
	t.Helper()
	specs := make([]ThreadSpec, len(profiles))
	for i, p := range profiles {
		prog, err := synth.Compile(p, seed)
		if err != nil {
			t.Fatalf("compile %s: %v", p.Name, err)
		}
		specs[i] = ThreadSpec{Name: p.Name, Reader: prog.NewStream(seed + uint64(i))}
	}
	c, err := New(cfg, specs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.forcePlain = plain
	streams = make([][]commitRec, len(profiles))
	c.SetCommitHook(func(u *uop.UOp) {
		streams[u.Thread] = append(streams[u.Thread], commitRec{seq: u.Inst.Seq, pc: u.Inst.PC})
	})
	if _, err := c.Run(budget); err != nil {
		t.Fatalf("%s plain=%t: %v", cfg.Policy, plain, err)
	}
	return c.Cycle(), streams
}

// fuzzRunKey names one runFuzzInput call.
type fuzzRunKey struct {
	in     fuzzInput
	policy icore.Policy
	plain  bool
}

type fuzzRun struct {
	cycles  int64
	streams [][]commitRec
}

// namedFuzzRuns holds runFuzzInput's results for the named inputs
// (FuzzPipeline's f.Add seeds and corpus files), so that
// TestFuzzCommitDigestsGolden and FuzzPipeline's seed run simulate each
// distinct one once. Five corpus files repeat seeds byte for byte.
// Inputs the fuzzer generates are never stored, so memory stays flat
// during a -fuzz run.
var namedFuzzRuns = struct {
	sync.Mutex
	m map[fuzzRunKey]fuzzRun
}{m: make(map[fuzzRunKey]fuzzRun)}

// runFuzzInput runs runFuzzConfig on in's machine under policy. With
// named set, in is a named input, and an earlier identical run is
// reused; callers only read the returned streams.
func runFuzzInput(t *testing.T, in fuzzInput, policy icore.Policy, plain, named bool) (int64, [][]commitRec) {
	t.Helper()
	key := fuzzRunKey{in, policy, plain}
	if named {
		namedFuzzRuns.Lock()
		r, ok := namedFuzzRuns.m[key]
		namedFuzzRuns.Unlock()
		if ok {
			return r.cycles, r.streams
		}
	}
	cfg, profiles, commits := in.machine()
	cfg.Policy = policy
	cycles, streams := runFuzzConfig(t, cfg, profiles, in.seed, commits, plain)
	if named {
		namedFuzzRuns.Lock()
		namedFuzzRuns.m[key] = fuzzRun{cycles, streams}
		namedFuzzRuns.Unlock()
	}
	return cycles, streams
}

// fuzzInput is one FuzzPipeline case: the fuzzer's raw arguments, in
// f.Add order.
type fuzzInput struct {
	nThreads, mixBits, deadlock, dabCap uint8
	iqSize, wdLimit                     uint16
	seed                                uint64
	budget                              uint16
}

// fuzzSeeds span 1-4 threads, both deadlock mechanisms, the IQ-size
// range the paper sweeps, and all three ILP classes. All three
// schedulers run inside every case.
var fuzzSeeds = []fuzzInput{
	{1, 0b00, 0, 16, 64, 450, 1, 800},
	{2, 0b0001, 0, 16, 32, 450, 2, 800},
	{3, 0b100100, 0, 8, 48, 300, 3, 600},
	{4, 0b11100100, 0, 16, 128, 450, 4, 800},
	{4, 0b01010101, 1, 4, 32, 600, 5, 600},
	{2, 0b1010, 1, 8, 16, 240, 6, 500},
	{3, 0b010010, 0, 32, 96, 450, 7, 700},
	{1, 0b10, 1, 2, 8, 900, 8, 400},
}

// machine derives the case's machine configuration (policy left at the
// default), per-thread workload profiles and commit budget.
func (in fuzzInput) machine() (Config, []synth.Profile, uint64) {
	threads := 1 + int(in.nThreads)%4
	profiles := make([]synth.Profile, threads)
	for i := range profiles {
		kind := in.mixBits >> (2 * i)
		profiles[i] = fuzzProfile(kind, fmt.Sprintf("synth%d", i))
	}

	cfg := DefaultConfig()
	cfg.IQSize = 8 + int(in.iqSize)%121 // [8,128]; never below machine width
	cfg.DispatchBufCap = 1 + int(in.dabCap)%32
	if in.deadlock%2 == 0 {
		cfg.Deadlock = DeadlockDAB
	} else {
		cfg.Deadlock = DeadlockWatchdog
		// Stay in the paper's suggested range (2-3x memory latency);
		// pathological limits turn into livelock, not bugs.
		cfg.WatchdogLimit = 200 + int64(in.wdLimit)%800
	}
	return cfg, profiles, 300 + uint64(in.budget)%1200
}

// FuzzPipeline is the metamorphic fuzz harness for the whole SMT
// pipeline. Each fuzz case draws a machine configuration (thread count,
// IQ size, deadlock mechanism, buffer sizes) and a synthetic workload
// mix, then runs it under all three dispatch policies on both the fast
// machine and the forcePlain reference, asserting the properties that
// hold regardless of schedule:
//
//  1. The fast machine (the sanitized walk with its dispatch freeze and
//     fastForward) is bit-identical to the forcePlain reference, which
//     runs every stage every cycle: same cycle count and same per-thread
//     committed instruction streams (DESIGN.md §12).
//  2. All three schedulers commit the same per-thread instruction
//     streams — dispatch order may differ, commit order may not. The
//     runs stop at different points, so the comparison is
//     prefix-equality.
//  3. Committed streams are exact replays of the trace: sequence
//     numbers count 0,1,2,... with no skip or duplicate, even across
//     watchdog flushes and misprediction squashes.
//
// Every run also executes under the cycle-level invariant sanitizer
// (internal/simsan), which fail-stops on structural corruption.
func FuzzPipeline(f *testing.F) {
	for _, in := range fuzzSeeds {
		f.Add(in.nThreads, in.mixBits, in.deadlock, in.dabCap, in.iqSize, in.wdLimit, in.seed, in.budget)
	}
	cases, err := fuzzDigestCases()
	if err != nil {
		f.Fatal(err)
	}
	named := make(map[fuzzInput]bool)
	for _, c := range cases {
		named[c.in] = true
	}

	f.Fuzz(func(t *testing.T, nThreads, mixBits, deadlock, dabCap uint8,
		iqSize, wdLimit uint16, seed uint64, budget uint16) {
		in := fuzzInput{nThreads, mixBits, deadlock, dabCap, iqSize, wdLimit, seed, budget}

		type run struct {
			policy  icore.Policy
			cycles  int64
			streams [][]commitRec
		}
		var runs []run
		for _, policy := range []icore.Policy{icore.InOrder, icore.TwoOpBlock, icore.TwoOpOOOD} {
			fastCycles, fastStreams := runFuzzInput(t, in, policy, false, named[in])
			plainCycles, plainStreams := runFuzzInput(t, in, policy, true, named[in])

			// Property 1: the fast machine matches the plain reference.
			if fastCycles != plainCycles {
				t.Errorf("%s: cycles diverge: fast %d, plain %d", policy, fastCycles, plainCycles)
			}
			for tid := range fastStreams {
				if len(fastStreams[tid]) != len(plainStreams[tid]) {
					t.Fatalf("%s thread %d: commit counts diverge: fast %d, plain %d",
						policy, tid, len(fastStreams[tid]), len(plainStreams[tid]))
				}
				for i, r := range fastStreams[tid] {
					if r != plainStreams[tid][i] {
						t.Fatalf("%s thread %d: commit %d diverges: fast %+v, plain %+v",
							policy, tid, i, r, plainStreams[tid][i])
					}
				}
			}

			// Property 3: the committed stream replays the trace exactly.
			for tid, s := range fastStreams {
				for i, r := range s {
					if r.seq != uint64(i) {
						t.Fatalf("%s thread %d: commit %d has trace seq %d (skip or duplicate)",
							policy, tid, i, r.seq)
					}
				}
			}

			runs = append(runs, run{policy: policy, cycles: fastCycles, streams: fastStreams})
		}

		// Property 2: schedulers agree on every per-thread committed
		// stream, up to the shorter run (the stopping rule fires at
		// different cycles under different schedules).
		base := runs[0]
		for _, r := range runs[1:] {
			for tid := range base.streams {
				n := min(len(base.streams[tid]), len(r.streams[tid]))
				for i := 0; i < n; i++ {
					if base.streams[tid][i] != r.streams[tid][i] {
						t.Fatalf("schedulers %s and %s diverge at thread %d commit %d: %+v vs %+v",
							base.policy, r.policy, tid, i, base.streams[tid][i], r.streams[tid][i])
					}
				}
			}
		}
	})
}
