// Package report assembles the paper's full evaluation — every figure
// and statistic plus this repository's extensions — and verifies the
// paper's qualitative claims ("shape targets" in DESIGN.md §4) against
// the measured tables. The shape targets are encoded as data, so the
// reproduction's health is machine-checkable:
//
//	go run ./cmd/smtreport -budget 120000 -check
package report

import (
	"fmt"
	"strings"

	"smtsim/internal/sweep"
)

// Section is one generated artifact.
type Section struct {
	Name  string
	Table sweep.Table
}

// Report is the complete evaluation output.
type Report struct {
	Sections []Section
}

// Table returns a section's table by name (empty table if absent).
func (r *Report) Table(name string) (sweep.Table, bool) {
	for _, s := range r.Sections {
		if s.Name == name {
			return s.Table, true
		}
	}
	return sweep.Table{}, false
}

// Render formats the whole report.
func (r *Report) Render() string {
	var b strings.Builder
	for _, s := range r.Sections {
		fmt.Fprintf(&b, "## %s\n\n%s\n", s.Name, s.Table.Render())
	}
	return b.String()
}

// Generate runs the full evaluation. The section names are stable
// identifiers the shape checks key on. In process, each distinct cell
// simulates once per report (see sweep.WithCellMemo).
func Generate(o sweep.Options) (*Report, error) {
	o = sweep.WithCellMemo(o)
	gens := []struct {
		name string
		run  func() (sweep.Table, error)
	}{
		{"classification", func() (sweep.Table, error) { return sweep.ClassifyBenchmarks(o) }},
		{"fig1", func() (sweep.Table, error) { return sweep.Figure1(o) }},
		{"fig3", func() (sweep.Table, error) { return sweep.FigureSpeedup(2, o) }},
		{"fig4", func() (sweep.Table, error) { return sweep.FigureFairness(2, o) }},
		{"fig5", func() (sweep.Table, error) { return sweep.FigureSpeedup(3, o) }},
		{"fig6", func() (sweep.Table, error) { return sweep.FigureFairness(3, o) }},
		{"fig7", func() (sweep.Table, error) { return sweep.FigureSpeedup(4, o) }},
		{"fig8", func() (sweep.Table, error) { return sweep.FigureFairness(4, o) }},
		{"stalls", func() (sweep.Table, error) { return sweep.StallStats(64, o) }},
		{"residency", func() (sweep.Table, error) { return sweep.ResidencyStats(2, 64, o) }},
		{"hdi", func() (sweep.Table, error) { return sweep.HDIStats(64, o) }},
		{"filter", func() (sweep.Table, error) { return sweep.FilterAblation(64, o) }},
		{"zoo", func() (sweep.Table, error) { return sweep.SchedulerZoo(64, o) }},
		{"gates", func() (sweep.Table, error) { return sweep.FetchGates(64, o) }},
		{"energy", func() (sweep.Table, error) { return sweep.EnergyComparison(4, 64, o) }},
	}
	r := &Report{}
	for _, g := range gens {
		t, err := g.run()
		if err != nil {
			return nil, fmt.Errorf("report: %s: %w", g.name, err)
		}
		r.Sections = append(r.Sections, Section{Name: g.name, Table: t})
	}
	return r, nil
}

// CheckResult is one shape target's verdict.
type CheckResult struct {
	ID     string
	Claim  string
	OK     bool
	Detail string
}

// Check evaluates every encoded shape target against the report.
func (r *Report) Check() []CheckResult {
	var out []CheckResult
	add := func(id, claim string, ok bool, detail string) {
		out = append(out, CheckResult{ID: id, Claim: claim, OK: ok, Detail: detail})
	}

	if t, found := r.Table("fig1"); found {
		ok, d := rowsMonotoneNonincreasing(t, 0.02)
		add("F1a", "2OP_BLOCK vs traditional degrades (weakly) with IQ size at every thread count", ok, d)
		ok, d = rowAllBelow(t, 0, 1.0)
		add("F1b", "2-thread 2OP_BLOCK loses at every IQ size", ok, d)
		ok, d = columnsOrdered(t, 0.02)
		add("F1c", "more threads help 2OP_BLOCK at every IQ size (2T <= 3T <= 4T)", ok, d)
	}
	for _, fig := range []struct {
		id, name string
		threads  int
	}{{"F3", "fig3", 2}, {"F5", "fig5", 3}, {"F7", "fig7", 4}} {
		t, found := r.Table(fig.name)
		if !found {
			continue
		}
		ok, d := rowDominates(t, 2, 1, -0.005)
		add(fig.id+"a", fmt.Sprintf("%d threads: OOO dispatch beats 2OP_BLOCK at every IQ size", fig.threads), ok, d)
		ok, d = cellAtLeast(t, 2, 0, 0.99)
		add(fig.id+"b", fmt.Sprintf("%d threads: OOO dispatch at least matches traditional at the smallest IQ", fig.threads), ok, d)
	}
	for _, fig := range []struct {
		id, name string
	}{{"F4", "fig4"}, {"F6", "fig6"}, {"F8", "fig8"}} {
		if t, found := r.Table(fig.name); found {
			ok, d := rowDominates(t, 2, 1, -0.005)
			add(fig.id, "fairness ordering matches throughput ordering (OOOD over 2OP everywhere)", ok, d)
		}
	}
	if t, found := r.Table("stalls"); found {
		strict := 0 // column: 2op strict
		add("S1a", "2OP stall-all cycles decrease with thread count (paper: 43/17/7%)",
			t.Values[0][strict] > t.Values[1][strict] && t.Values[1][strict] > t.Values[2][strict],
			fmt.Sprintf("%.1f / %.1f / %.1f%%", t.Values[0][strict], t.Values[1][strict], t.Values[2][strict]))
		add("S1b", "OOO dispatch collapses the stall-all cycles at every thread count",
			t.Values[0][2] < t.Values[0][0]/2 && t.Values[1][2] < t.Values[1][0]/2 && t.Values[2][2] < t.Values[2][0]/2,
			fmt.Sprintf("2T: %.1f%% -> %.1f%%", t.Values[0][strict], t.Values[0][2]))
	}
	if t, found := r.Table("residency"); found {
		add("S2", "OOO dispatch shortens IQ residency vs traditional (paper: 21 -> 15 cycles)",
			t.Values[2][0] < t.Values[0][0],
			fmt.Sprintf("%.1f -> %.1f cycles", t.Values[0][0], t.Values[2][0]))
	}
	if t, found := r.Table("hdi"); found {
		ok := true
		for _, row := range t.Values {
			if row[1] < 5 || row[1] > 20 {
				ok = false
			}
		}
		add("S3", "~10% of out-of-order dispatches depend on the bypassed NDI",
			ok, fmt.Sprintf("%.1f / %.1f / %.1f%%", t.Values[0][1], t.Values[1][1], t.Values[2][1]))
	}
	if t, found := r.Table("filter"); found {
		ok := true
		for _, row := range t.Values {
			if row[0] < 0.98 || row[0] > 1.05 {
				ok = false
			}
		}
		add("S4", "idealized NDI filtering is worth at most a few percent (paper: ~1.2%)",
			ok, fmt.Sprintf("%.3f / %.3f / %.3f", t.Values[0][0], t.Values[1][0], t.Values[2][0]))
	}
	if t, found := r.Table("energy"); found {
		add("X3", "2OP designs roughly halve scheduling energy-delay product at ~equal IPC",
			t.Values[2][3] < 0.7 && t.Values[2][2] > 0.9,
			fmt.Sprintf("OOOD: EDP ratio %.2f at speedup %.3f", t.Values[2][3], t.Values[2][2]))
	}
	return out
}

// RenderChecks formats verdicts, one line each, and reports the tally.
func RenderChecks(cs []CheckResult) string {
	var b strings.Builder
	pass := 0
	for _, c := range cs {
		mark := "FAIL"
		if c.OK {
			mark = "ok  "
			pass++
		}
		fmt.Fprintf(&b, "%s %-4s %s", mark, c.ID, c.Claim)
		if c.Detail != "" {
			fmt.Fprintf(&b, " [%s]", c.Detail)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d/%d shape targets hold\n", pass, len(cs))
	return b.String()
}

// --- table predicates -------------------------------------------------

func rowsMonotoneNonincreasing(t sweep.Table, slack float64) (bool, string) {
	for i, row := range t.Values {
		for j := 1; j < len(row); j++ {
			if row[j] > row[j-1]+slack {
				return false, fmt.Sprintf("row %q rises at %s", t.Rows[i], t.Cols[j])
			}
		}
	}
	return true, ""
}

func rowAllBelow(t sweep.Table, row int, limit float64) (bool, string) {
	for j, v := range t.Values[row] {
		if v >= limit {
			return false, fmt.Sprintf("%s = %.3f", t.Cols[j], v)
		}
	}
	return true, ""
}

func columnsOrdered(t sweep.Table, slack float64) (bool, string) {
	for j := range t.Cols {
		for i := 1; i < len(t.Rows); i++ {
			if t.Values[i][j] < t.Values[i-1][j]-slack {
				return false, fmt.Sprintf("%s: row %q below row %q", t.Cols[j], t.Rows[i], t.Rows[i-1])
			}
		}
	}
	return true, ""
}

func rowDominates(t sweep.Table, hi, lo int, slack float64) (bool, string) {
	for j := range t.Cols {
		if t.Values[hi][j] < t.Values[lo][j]+slack {
			return false, fmt.Sprintf("%s: %.3f !> %.3f", t.Cols[j], t.Values[hi][j], t.Values[lo][j])
		}
	}
	return true, ""
}

func cellAtLeast(t sweep.Table, row, col int, limit float64) (bool, string) {
	if t.Values[row][col] < limit {
		return false, fmt.Sprintf("%s = %.3f < %.3f", t.Cols[col], t.Values[row][col], limit)
	}
	return true, ""
}
