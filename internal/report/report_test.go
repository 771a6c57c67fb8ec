package report

import (
	"strings"
	"testing"

	"smtsim"
	"smtsim/internal/cellstore"
	"smtsim/internal/sweep"
)

func table(rows, cols []string, vals [][]float64) sweep.Table {
	return sweep.Table{Rows: rows, Cols: cols, Values: vals}
}

func TestPredicates(t *testing.T) {
	tab := table([]string{"a", "b"}, []string{"x", "y"},
		[][]float64{{1.0, 0.9}, {1.1, 1.0}})
	if ok, _ := rowsMonotoneNonincreasing(tab, 0.01); !ok {
		t.Error("nonincreasing rows rejected")
	}
	rising := table([]string{"a"}, []string{"x", "y"}, [][]float64{{0.9, 1.0}})
	if ok, _ := rowsMonotoneNonincreasing(rising, 0.01); ok {
		t.Error("rising row accepted")
	}
	if ok, _ := rowAllBelow(tab, 0, 1.01); !ok {
		t.Error("below-limit row rejected")
	}
	if ok, _ := rowAllBelow(tab, 1, 1.0); ok {
		t.Error("above-limit row accepted")
	}
	if ok, _ := columnsOrdered(tab, 0.01); !ok {
		t.Error("ordered columns rejected")
	}
	if ok, _ := rowDominates(tab, 1, 0, -0.005); !ok {
		t.Error("dominating row rejected")
	}
	if ok, _ := rowDominates(tab, 0, 1, -0.005); ok {
		t.Error("dominated row accepted")
	}
	if ok, _ := cellAtLeast(tab, 0, 0, 0.99); !ok {
		t.Error("sufficient cell rejected")
	}
	if ok, _ := cellAtLeast(tab, 0, 1, 0.99); ok {
		t.Error("insufficient cell accepted")
	}
}

func TestCheckOnSyntheticReport(t *testing.T) {
	// A fabricated report in which every paper claim holds.
	iqCols := []string{"IQ=32", "IQ=64"}
	r := &Report{Sections: []Section{
		{"fig1", table([]string{"2 threads", "3 threads", "4 threads"}, iqCols,
			[][]float64{{0.9, 0.8}, {0.95, 0.85}, {1.05, 0.9}})},
		{"fig3", table([]string{"trad", "2op", "ooo"}, iqCols,
			[][]float64{{1, 1}, {0.85, 0.8}, {1.05, 1.0}})},
		{"fig4", table([]string{"trad", "2op", "ooo"}, iqCols,
			[][]float64{{1, 1}, {0.85, 0.8}, {1.05, 1.0}})},
		{"stalls", table([]string{"2 threads", "3 threads", "4 threads"},
			[]string{"2op strict", "2op weak", "ooo strict", "ooo weak"},
			[][]float64{{40, 50, 1, 10}, {17, 40, 0.5, 9}, {7, 30, 0.2, 8}})},
		{"residency", table([]string{"trad", "2op", "ooo"}, []string{"residency", "occupancy"},
			[][]float64{{21, 50}, {10, 12}, {15, 40}})},
		{"hdi", table([]string{"2", "3", "4"}, []string{"piled", "dep"},
			[][]float64{{90, 10}, {88, 11}, {85, 9}})},
		{"filter", table([]string{"2", "3", "4"}, []string{"speedup"},
			[][]float64{{1.01}, {1.012}, {1.0}})},
		{"energy", table([]string{"trad", "2op", "ooo", "te"},
			[]string{"comparators", "energy/inst", "IPC speedup", "EDP ratio"},
			[][]float64{{128, 100, 1, 1}, {64, 55, 0.95, 0.6}, {64, 56, 1.0, 0.55}, {64, 57, 1.0, 0.56}})},
	}}
	checks := r.Check()
	if len(checks) == 0 {
		t.Fatal("no checks ran")
	}
	for _, c := range checks {
		if !c.OK {
			t.Errorf("%s failed on the all-good synthetic report: %s [%s]", c.ID, c.Claim, c.Detail)
		}
	}
	out := RenderChecks(checks)
	if !strings.Contains(out, "shape targets hold") {
		t.Error("render missing tally")
	}
}

func TestCheckCatchesViolations(t *testing.T) {
	// 2OP beating OOOD must fail the dominance check.
	r := &Report{Sections: []Section{
		{"fig3", table([]string{"trad", "2op", "ooo"}, []string{"IQ=32"},
			[][]float64{{1}, {1.1}, {0.9}})},
	}}
	bad := 0
	for _, c := range r.Check() {
		if !c.OK {
			bad++
		}
	}
	if bad == 0 {
		t.Error("inverted ordering passed the checks")
	}
}

func TestGenerateSmallBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full report generation")
	}
	r, err := Generate(sweep.Options{Budget: 1_500, Seed: 1, IQSizes: []int{32, 64}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sections) != 15 {
		t.Fatalf("sections = %d", len(r.Sections))
	}
	if _, found := r.Table("fig7"); !found {
		t.Error("fig7 missing")
	}
	if s := r.Render(); !strings.Contains(s, "## fig1") {
		t.Error("render missing sections")
	}
	// At this tiny budget shapes may not hold; just exercise Check.
	_ = RenderChecks(r.Check())
}

// TestGenerateCellAccounting pins the report's cell accounting at the
// repository benchmark's budget: 2126 cell requests in 29 batches, of
// which 842 are distinct. In process each distinct cell simulates once;
// through a Runner every request arrives unchanged. Seeds 1301 and 1302
// belong to this test alone, because AloneIPCs' memo is process-wide and
// keyed by seed.
func TestGenerateCellAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("full report generation")
	}
	sims := 0
	local := sweep.Options{Budget: 2000, Seed: 1301, Progress: func(string) { sims++ }}
	if _, err := Generate(local); err != nil {
		t.Fatal(err)
	}
	if sims != 842 {
		t.Errorf("local report simulated %d cells, want 842", sims)
	}

	// The recording runner resolves repeats by content hash, as sweepd's
	// store does, so it shares no code with the memo under test.
	requested, batches := 0, 0
	byHash := map[string]smtsim.Result{}
	remote := sweep.Options{Budget: 2000, Seed: 1302, Runner: func(specs []cellstore.Spec) ([]smtsim.Result, error) {
		requested += len(specs)
		batches++
		out := make([]smtsim.Result, len(specs))
		for i, s := range specs {
			r, ok := byHash[s.Key()]
			if !ok {
				var err error
				if r, err = sweep.SimulateSpec(s); err != nil {
					return nil, err
				}
				byHash[s.Key()] = r
			}
			out[i] = r
		}
		return out, nil
	}}
	want, err := Generate(remote)
	if err != nil {
		t.Fatal(err)
	}
	if requested != 2126 || batches != 29 {
		t.Errorf("runner saw %d specs in %d batches, want 2126 in 29", requested, batches)
	}

	local.Seed = 1302
	got, err := Generate(local)
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Errorf("in-process report differs from the Runner's:\n--- in process ---\n%s\n--- runner ---\n%s",
			got.Render(), want.Render())
	}
}
