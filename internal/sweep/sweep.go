// Package sweep is the experiment harness: it regenerates every figure
// and statistic of the paper's evaluation by sweeping scheduler designs
// and issue-queue sizes over the workload mix tables, aggregating with
// the paper's harmonic means.
//
// Simulation cells are independent, so the harness fans them out over a
// bounded worker pool; results are deterministic regardless of worker
// scheduling because every cell is seeded independently.
package sweep

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"smtsim"
	"smtsim/internal/cellstore"
	"smtsim/internal/metrics"
	"smtsim/internal/workload"
)

// DefaultIQSizes is the paper's scheduler-size sweep.
var DefaultIQSizes = []int{32, 48, 64, 96, 128}

// Options configures a sweep.
type Options struct {
	// Budget is the per-run instruction budget (the run stops when any
	// thread commits this many). Zero selects 200k, enough for the
	// synthetic workloads' statistics to converge (see the convergence
	// test in internal/sweep).
	Budget uint64
	// Seed perturbs workload data and branch outcomes.
	Seed uint64
	// Warmup is the pre-measurement instruction budget (warm caches and
	// predictors, then reset statistics). Zero selects half the
	// measurement budget, mirroring the paper's initialization skipping.
	Warmup uint64
	// IQSizes overrides DefaultIQSizes.
	IQSizes []int
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Progress, when non-nil, receives a line per simulated cell; memo
	// hits (see WithCellMemo) print nothing.
	Progress func(string)
	// Runner, when non-nil, replaces the in-process cell executor:
	// every figure and statistic routes its simulation cells through it
	// as content-addressed specs, in cell order. This is how
	// `smtsweep -server` turns a sweep into sweepd requests — the specs
	// are identical to the ones the local path simulates, so results
	// are bit-identical by construction.
	Runner CellRunner

	memo *cellMemo // see WithCellMemo; unused when Runner is set
}

// WithCellMemo returns o with a fresh cell memo: figures and statistics
// computed with the returned Options (and its copies) simulate each
// distinct cell at most once. Only the in-process executor consults the
// memo; a Runner sees every request, as the sweep service dedupes itself.
func WithCellMemo(o Options) Options {
	o.memo = &cellMemo{results: map[memoKey]smtsim.Result{}}
	return o
}

// cellMemo holds the results of the cells simulated so far under one
// memoized Options. Failed cells are never stored.
type cellMemo struct {
	mu      sync.Mutex
	results map[memoKey]smtsim.Result
}

// memoKey is the comparable image of a canonical cellstore.Spec, the
// benchmark list joined by a byte no benchmark name contains. It avoids
// Spec.Key's JSON and sha256 per lookup; TestMemoKeyCoversSpec fails if
// Spec gains a field the key does not carry.
type memoKey struct {
	benchmarks, scheduler, fetchGate string
	iqSize, memoryLatency            int
	budget, warmup, seed             uint64
}

func memoKeyOf(s cellstore.Spec) memoKey {
	return memoKey{strings.Join(s.Benchmarks, "\x00"), s.Scheduler, s.FetchGate,
		s.IQSize, s.MemoryLatency, s.Budget, s.Warmup, s.Seed}
}

// CellRunner executes a batch of simulation cells and returns their
// results in spec order. Implementations must be deterministic in the
// specs alone (the local runner and the sweepd client both are).
type CellRunner func(specs []cellstore.Spec) ([]smtsim.Result, error)

func (o Options) budget() uint64 {
	if o.Budget == 0 {
		return 200_000
	}
	return o.Budget
}

func (o Options) warmup() uint64 {
	if o.Warmup == 0 {
		return o.budget() / 2
	}
	return o.Warmup
}

func (o Options) iqSizes() []int {
	if len(o.IQSizes) == 0 {
		return DefaultIQSizes
	}
	return o.IQSizes
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// cell is one simulation in a sweep.
type cell struct {
	mix    workload.Mix
	sched  smtsim.Scheduler
	iq     int
	gate   string // fetch gate ("" = none)
	memLat int    // memory latency override (0 = Table 1's)
}

// spec renders the cell as its content-addressed description. This is
// the single place sweep cells become simulator inputs: the local
// runner, the sweepd client, and the hash golden test all go through
// it, so a drift here moves every cell hash and trips the golden.
func (c cell) spec(o Options) cellstore.Spec {
	return cellstore.Spec{
		Benchmarks:    c.mix.Benchmarks,
		Scheduler:     c.sched.String(),
		IQSize:        c.iq,
		FetchGate:     c.gate,
		MemoryLatency: c.memLat,
		Budget:        o.budget(),
		Warmup:        o.warmup(),
		Seed:          o.Seed + 1,
	}.Canonical()
}

// SimulateSpec runs one content-addressed cell in process. sweepd's
// workers and the local sweep path share this entry point, which is
// what makes a cached cell bit-identical to a fresh one.
func SimulateSpec(s cellstore.Spec) (smtsim.Result, error) {
	cfg, err := s.Config()
	if err != nil {
		return smtsim.Result{}, err
	}
	return smtsim.Run(cfg)
}

// runCells executes the cells and returns results in cell order: through
// Options.Runner when one is installed, else in process (via the memo, if any).
func runCells(cells []cell, o Options) ([]smtsim.Result, error) {
	specs := make([]cellstore.Spec, len(cells))
	for i := range cells {
		specs[i] = cells[i].spec(o)
	}
	if o.Runner != nil {
		results, err := o.Runner(specs)
		if err != nil {
			return nil, fmt.Errorf("sweep: remote runner: %w", err)
		}
		if len(results) != len(cells) {
			return nil, fmt.Errorf("sweep: remote runner returned %d results for %d cells", len(results), len(cells))
		}
		return results, nil
	}
	if o.memo != nil {
		return o.memo.run(cells, specs, o)
	}
	return simulateCells(cells, specs, o)
}

// run looks every cell up, simulates each distinct miss once, stores the
// fresh results and returns all results in cell order.
func (m *cellMemo) run(cells []cell, specs []cellstore.Spec, o Options) ([]smtsim.Result, error) {
	keys := make([]memoKey, len(specs))
	pending := map[memoKey]bool{}
	var missKeys []memoKey
	var missCells []cell
	var missSpecs []cellstore.Spec
	m.mu.Lock()
	for i, s := range specs {
		keys[i] = memoKeyOf(s)
		if _, done := m.results[keys[i]]; !done && !pending[keys[i]] {
			pending[keys[i]] = true
			missKeys = append(missKeys, keys[i])
			missCells = append(missCells, cells[i])
			missSpecs = append(missSpecs, s)
		}
	}
	m.mu.Unlock()
	fresh, err := simulateCells(missCells, missSpecs, o)
	if err != nil {
		return nil, err
	}
	results := make([]smtsim.Result, len(specs))
	m.mu.Lock()
	defer m.mu.Unlock()
	for j, k := range missKeys {
		m.results[k] = fresh[j]
	}
	for i, k := range keys {
		results[i] = m.results[k]
	}
	return results, nil
}

// simulateCells runs the cells concurrently in process and returns
// results in cell order. The Progress callback is serialized (callers
// pass closures that write to shared state) and skipped for failed
// cells, whose results are not meaningful.
func simulateCells(cells []cell, specs []cellstore.Spec, o Options) ([]smtsim.Result, error) {
	results := make([]smtsim.Result, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	sem := make(chan struct{}, o.workers())
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := cells[i]
			res, err := SimulateSpec(specs[i])
			results[i], errs[i] = res, err
			if o.Progress != nil && err == nil {
				progressMu.Lock()
				o.Progress(fmt.Sprintf("%s iq=%d %s: IPC=%.3f", c.sched, c.iq, c.mix, res.IPC))
				progressMu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: %s iq=%d %s: %w", cells[i].sched, cells[i].iq, cells[i].mix, err)
		}
	}
	return results, nil
}

// Table1Specs enumerates the content-addressed cells of the paper's
// headline sweep — the Figures 3/5/7 grid: every scheduler × IQ size ×
// mix at thread counts 2, 3, and 4 — in deterministic order. The hash
// golden test pins these cells' keys; the sweep service's end-to-end
// test replays them twice to prove a warm rerun simulates nothing.
func Table1Specs(o Options) ([]cellstore.Spec, error) {
	var specs []cellstore.Spec
	for _, threads := range []int{2, 3, 4} {
		mixes, err := workload.MixesFor(threads)
		if err != nil {
			return nil, err
		}
		for _, s := range smtsim.Schedulers {
			for _, q := range o.iqSizes() {
				for _, m := range mixes {
					specs = append(specs, cell{mix: m, sched: s, iq: q}.spec(o))
				}
			}
		}
	}
	return specs, nil
}

// Table is a labeled 2-D result grid.
type Table struct {
	Title  string
	Rows   []string
	Cols   []string
	Values [][]float64
	// Note carries the aggregation description printed under the table.
	Note string
}

// RenderBars formats the table as horizontal ASCII bars, one block per
// row/column pair, scaled to the table's maximum value — a terminal
// rendition of the paper's bar charts.
func (t Table) RenderBars() string {
	max := 0.0
	for _, row := range t.Values {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	if max == 0 {
		return t.Render()
	}
	const width = 40
	out := t.Title + "\n"
	for i, r := range t.Rows {
		out += r + "\n"
		for j, c := range t.Cols {
			n := int(t.Values[i][j] / max * width)
			if n < 0 {
				n = 0
			}
			out += fmt.Sprintf("  %-10s %7.3f |%s\n", c, t.Values[i][j], strings.Repeat("#", n))
		}
	}
	if t.Note != "" {
		out += t.Note + "\n"
	}
	return out
}

// CSV formats the table as comma-separated values for external plotting.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString("row")
	for _, c := range t.Cols {
		b.WriteString("," + c)
	}
	b.WriteByte('\n')
	for i, r := range t.Rows {
		b.WriteString(r)
		for j := range t.Cols {
			fmt.Fprintf(&b, ",%.6f", t.Values[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Render formats the table as aligned text; column widths adapt to the
// longest label.
func (t Table) Render() string {
	rowW := 12
	for _, r := range t.Rows {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	colW := 9
	for _, c := range t.Cols {
		if len(c)+2 > colW {
			colW = len(c) + 2
		}
	}
	out := t.Title + "\n"
	out += fmt.Sprintf("%-*s", rowW+2, "")
	for _, c := range t.Cols {
		out += fmt.Sprintf("%*s", colW, c)
	}
	out += "\n"
	for i, r := range t.Rows {
		out += fmt.Sprintf("%-*s", rowW+2, r)
		for j := range t.Cols {
			out += fmt.Sprintf("%*.3f", colW, t.Values[i][j])
		}
		out += "\n"
	}
	if t.Note != "" {
		out += t.Note + "\n"
	}
	return out
}

// mixIPCGrid runs sched×iq×mix and returns IPC[schedIdx][iqIdx][mixIdx].
func mixIPCGrid(threads int, scheds []smtsim.Scheduler, o Options) ([][][]float64, [][][]smtsim.Result, error) {
	mixes, err := workload.MixesFor(threads)
	if err != nil {
		return nil, nil, err
	}
	iqs := o.iqSizes()
	var cells []cell
	for _, s := range scheds {
		for _, q := range iqs {
			for _, m := range mixes {
				cells = append(cells, cell{mix: m, sched: s, iq: q})
			}
		}
	}
	flat, err := runCells(cells, o)
	if err != nil {
		return nil, nil, err
	}
	ipc := make([][][]float64, len(scheds))
	res := make([][][]smtsim.Result, len(scheds))
	k := 0
	for i := range scheds {
		ipc[i] = make([][]float64, len(iqs))
		res[i] = make([][]smtsim.Result, len(iqs))
		for j := range iqs {
			ipc[i][j] = make([]float64, len(mixes))
			res[i][j] = make([]smtsim.Result, len(mixes))
			for m := range mixes {
				ipc[i][j][m] = flat[k].IPC
				res[i][j][m] = flat[k]
				k++
			}
		}
	}
	return ipc, res, nil
}

// speedupRow aggregates per-mix speedups of num over den with the
// harmonic mean, the paper's cross-mix aggregation.
func speedupRow(num, den []float64) float64 {
	ratios := make([]float64, len(num))
	for i := range num {
		if den[i] <= 0 {
			return 0
		}
		ratios[i] = num[i] / den[i]
	}
	return metrics.HarmonicMean(ratios)
}

// FigureSpeedup reproduces Figures 3, 5, and 7: the throughput-IPC
// speedup of each scheduler over the traditional scheduler of the same
// capacity, per IQ size, harmonically averaged over the thread-count's
// twelve mixes. threads selects 2 (Figure 3), 3 (Figure 5), or 4
// (Figure 7).
func FigureSpeedup(threads int, o Options) (Table, error) {
	scheds := []smtsim.Scheduler{smtsim.Traditional, smtsim.TwoOpBlock, smtsim.TwoOpOOOD}
	ipc, _, err := mixIPCGrid(threads, scheds, o)
	if err != nil {
		return Table{}, err
	}
	return speedupTable(
		fmt.Sprintf("Throughput IPC speedup vs traditional, %d-threaded workloads", threads),
		scheds, ipc, o), nil
}

func speedupTable(title string, scheds []smtsim.Scheduler, ipc [][][]float64, o Options) Table {
	iqs := o.iqSizes()
	t := Table{
		Title: title,
		Note:  "harmonic mean of per-mix ratios over the 12 paper mixes",
	}
	for _, q := range iqs {
		t.Cols = append(t.Cols, fmt.Sprintf("IQ=%d", q))
	}
	for i, s := range scheds {
		t.Rows = append(t.Rows, s.String())
		row := make([]float64, len(iqs))
		for j := range iqs {
			row[j] = speedupRow(ipc[i][j], ipc[0][j])
		}
		t.Values = append(t.Values, row)
	}
	return t
}

// Figure1 reproduces Figure 1: the 2OP_BLOCK scheduler's IPC speedup over
// the traditional scheduler of the same capacity, for 2-, 3-, and
// 4-threaded workloads across IQ sizes.
func Figure1(o Options) (Table, error) {
	iqs := o.iqSizes()
	t := Table{
		Title: "Figure 1: 2OP_BLOCK IPC speedup vs traditional IQ of same capacity",
		Note:  "harmonic mean of per-mix ratios over the 12 paper mixes per thread count",
	}
	for _, q := range iqs {
		t.Cols = append(t.Cols, fmt.Sprintf("IQ=%d", q))
	}
	for _, threads := range []int{2, 3, 4} {
		ipc, _, err := mixIPCGrid(threads, []smtsim.Scheduler{smtsim.Traditional, smtsim.TwoOpBlock}, o)
		if err != nil {
			return Table{}, err
		}
		row := make([]float64, len(iqs))
		for j := range iqs {
			row[j] = speedupRow(ipc[1][j], ipc[0][j])
		}
		t.Rows = append(t.Rows, fmt.Sprintf("%d threads", threads))
		t.Values = append(t.Values, row)
	}
	return t, nil
}

// aloneKey identifies one single-thread baseline cell: everything that
// determines its IPC.
type aloneKey struct {
	bench          string
	iq             int
	budget, warmup uint64
	seed           uint64
}

var (
	aloneMu    sync.Mutex
	aloneCache = map[aloneKey]float64{}
)

// AloneIPCs runs every benchmark of the mixes single-threaded on the
// traditional machine at each IQ size — the reference IPCs of the
// fairness metric. The returned map is keyed by benchmark then IQ size.
//
// Results are memoized for the life of the process: the fairness figures
// for 2-, 3-, and 4-threaded workloads (F4, F6, F8) share most of their
// baselines, and single-thread runs are deterministic in (benchmark, IQ,
// budget, warmup, seed), so cmd/smtreport pays for each baseline once.
func AloneIPCs(threads int, o Options) (map[string]map[int]float64, error) {
	mixes, err := workload.MixesFor(threads)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var names []string
	for _, m := range mixes {
		for _, b := range m.Benchmarks {
			if !seen[b] {
				seen[b] = true
				names = append(names, b)
			}
		}
	}
	iqs := o.iqSizes()
	budget, warmup := o.budget(), o.warmup()
	out := make(map[string]map[int]float64, len(names))
	var cells []cell
	var misses []aloneKey
	aloneMu.Lock()
	for _, b := range names {
		out[b] = make(map[int]float64, len(iqs))
		for _, q := range iqs {
			key := aloneKey{bench: b, iq: q, budget: budget, warmup: warmup, seed: o.Seed}
			if v, ok := aloneCache[key]; ok {
				out[b][q] = v
				continue
			}
			misses = append(misses, key)
			cells = append(cells, cell{
				mix:   workload.Mix{Name: "alone", Benchmarks: []string{b}},
				sched: smtsim.Traditional,
				iq:    q,
			})
		}
	}
	aloneMu.Unlock()
	if len(cells) == 0 {
		return out, nil
	}
	flat, err := runCells(cells, o)
	if err != nil {
		return nil, err
	}
	aloneMu.Lock()
	for i, key := range misses {
		aloneCache[key] = flat[i].IPC
		out[key.bench][key.iq] = flat[i].IPC
	}
	aloneMu.Unlock()
	return out, nil
}

// FigureFairness reproduces Figures 4, 6, and 8: the improvement in the
// harmonic-mean-of-weighted-IPCs fairness metric of each scheduler over
// the traditional scheduler of the same capacity. Weighted IPCs use
// single-threaded runs on the traditional machine of the same IQ size as
// the common reference (see EXPERIMENTS.md for the rationale).
func FigureFairness(threads int, o Options) (Table, error) {
	scheds := []smtsim.Scheduler{smtsim.Traditional, smtsim.TwoOpBlock, smtsim.TwoOpOOOD}
	_, res, err := mixIPCGrid(threads, scheds, o)
	if err != nil {
		return Table{}, err
	}
	alone, err := AloneIPCs(threads, o)
	if err != nil {
		return Table{}, err
	}
	mixes, _ := workload.MixesFor(threads)
	iqs := o.iqSizes()

	// fair[i][j][m]: the fairness metric of scheduler i at IQ j on mix m.
	fair := make([][][]float64, len(scheds))
	for i := range scheds {
		fair[i] = make([][]float64, len(iqs))
		for j, q := range iqs {
			fair[i][j] = make([]float64, len(mixes))
			for m, mix := range mixes {
				ref := make([]float64, len(mix.Benchmarks))
				for b, name := range mix.Benchmarks {
					ref[b] = alone[name][q]
				}
				f, err := metrics.HarmonicWeightedIPC(res[i][j][m].PerThreadIPCs(), ref)
				if err != nil {
					return Table{}, err
				}
				fair[i][j][m] = f
			}
		}
	}

	t := Table{
		Title: fmt.Sprintf("Fairness (harmonic mean of weighted IPCs) improvement vs traditional, %d-threaded workloads", threads),
		Note:  "harmonic mean of per-mix ratios over the 12 paper mixes",
	}
	for _, q := range iqs {
		t.Cols = append(t.Cols, fmt.Sprintf("IQ=%d", q))
	}
	for i, s := range scheds {
		t.Rows = append(t.Rows, s.String())
		row := make([]float64, len(iqs))
		for j := range iqs {
			row[j] = speedupRow(fair[i][j], fair[0][j])
		}
		t.Values = append(t.Values, row)
	}
	return t, nil
}
