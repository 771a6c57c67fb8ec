package sweep

import (
	"strings"
	"testing"

	"smtsim"
	"smtsim/internal/workload"
)

func mixOf(names ...string) workload.Mix {
	return workload.Mix{Name: "test", Benchmarks: names}
}

// fastOpts keeps harness tests quick: tiny budgets, a reduced IQ sweep.
func fastOpts() Options {
	return Options{Budget: 4_000, Seed: 1, IQSizes: []int{32, 64}}
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep harness test")
	}
	tab, err := Figure1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Cols) != 2 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Cols))
	}
	for i, row := range tab.Values {
		for j, v := range row {
			if v <= 0 || v > 3 {
				t.Errorf("implausible speedup [%d][%d] = %v", i, j, v)
			}
		}
	}
}

func TestFigureSpeedupBaselineRow(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep harness test")
	}
	tab, err := FigureSpeedup(2, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range tab.Values[0] {
		if v != 1.0 {
			t.Errorf("traditional-vs-traditional speedup [%d] = %v, want 1", j, v)
		}
	}
}

func TestFigureFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep harness test")
	}
	o := Options{Budget: 4_000, Seed: 1, IQSizes: []int{64}}
	tab, err := FigureFairness(2, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Cols) != 1 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Cols))
	}
	if tab.Values[0][0] != 1.0 {
		t.Errorf("baseline fairness ratio = %v", tab.Values[0][0])
	}
}

func TestAloneIPCsCoverMixBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep harness test")
	}
	o := Options{Budget: 3_000, Seed: 1, IQSizes: []int{64}}
	alone, err := AloneIPCs(2, o)
	if err != nil {
		t.Fatal(err)
	}
	lists, _, _ := smtsim.Mixes(2)
	for _, l := range lists {
		for _, b := range l {
			if alone[b][64] <= 0 {
				t.Errorf("missing alone IPC for %s", b)
			}
		}
	}
}

func TestStallStatsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep harness test")
	}
	tab, err := StallStats(64, Options{Budget: 3_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Cols) != 4 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Cols))
	}
	for _, row := range tab.Values {
		for _, v := range row {
			if v < 0 || v > 100 {
				t.Errorf("stall percentage %v outside [0,100]", v)
			}
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Rows:   []string{"a", "b"},
		Cols:   []string{"x"},
		Values: [][]float64{{1.5}, {2.5}},
		Note:   "note",
	}
	s := tab.Render()
	for _, want := range []string{"demo", "a", "b", "x", "1.500", "2.500", "note"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestRunCellsPropagatesErrors(t *testing.T) {
	cells := []cell{
		{mix: mixOf("gzip"), sched: smtsim.Traditional, iq: 64},
		{mix: mixOf("bogus-benchmark"), sched: smtsim.Traditional, iq: 64},
	}
	memo := WithCellMemo(Options{Budget: 1000})
	for _, o := range []Options{{Budget: 1000}, memo} {
		if _, err := runCells(cells, o); err == nil {
			t.Error("unknown benchmark did not fail the sweep")
		}
	}
	if n := len(memo.memo.results); n != 0 {
		t.Errorf("a failed batch left %d results in the memo", n)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.budget() != 200_000 {
		t.Errorf("default budget %d", o.budget())
	}
	if len(o.iqSizes()) != len(DefaultIQSizes) {
		t.Error("default IQ sizes not applied")
	}
	if o.workers() < 1 {
		t.Error("default workers < 1")
	}
}
