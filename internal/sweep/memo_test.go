package sweep

import (
	"reflect"
	"testing"

	"smtsim"
	"smtsim/internal/cellstore"
)

// TestMemoKeyCoversSpec perturbs each field of cellstore.Spec in turn and
// requires the memo key to change: a Spec field the key ignored would let
// two different cells share one memoized result.
func TestMemoKeyCoversSpec(t *testing.T) {
	base := cellstore.Spec{
		Benchmarks: []string{"gzip", "gcc"}, Scheduler: "traditional", IQSize: 64,
		FetchGate: "stall", MemoryLatency: 300, Budget: 1000, Warmup: 500, Seed: 2,
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		s := base.Canonical()
		f := reflect.ValueOf(&s).Elem().Field(i)
		switch {
		case f.Kind() == reflect.String:
			f.SetString(f.String() + "x")
		case f.CanInt():
			f.SetInt(f.Int() + 1)
		case f.CanUint():
			f.SetUint(f.Uint() + 1)
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.String:
			f.Set(reflect.Append(f, reflect.ValueOf("mcf")))
		default:
			t.Fatalf("Spec.%s has type %s, which this test cannot perturb: extend it and memoKeyOf",
				typ.Field(i).Name, f.Type())
		}
		if memoKeyOf(s) == memoKeyOf(base) {
			t.Errorf("memo key ignores Spec.%s", typ.Field(i).Name)
		}
	}
	a, b := base, base
	a.Benchmarks, b.Benchmarks = []string{"ab", "c"}, []string{"a", "bc"}
	if memoKeyOf(a) == memoKeyOf(b) {
		t.Error("benchmark lists [ab c] and [a bc] share a memo key")
	}
}

// TestCellMemoSimulatesEachCellOnce counts simulations through Progress:
// a duplicate inside one batch and a repeat in a later batch each resolve
// from the first simulation, with the results an unmemoized run gives.
func TestCellMemoSimulatesEachCellOnce(t *testing.T) {
	sims := 0
	o := WithCellMemo(Options{Budget: 1000, Seed: 1, Progress: func(string) { sims++ }})
	a := cell{mix: mixOf("gzip"), sched: smtsim.Traditional, iq: 32}
	b := cell{mix: mixOf("gcc"), sched: smtsim.Traditional, iq: 32}

	first, err := runCells([]cell{a, b, a}, o)
	if err != nil {
		t.Fatal(err)
	}
	if sims != 2 {
		t.Errorf("batch [a b a] simulated %d cells, want 2", sims)
	}
	second, err := runCells([]cell{b, a}, o)
	if err != nil {
		t.Fatal(err)
	}
	if sims != 2 {
		t.Errorf("repeating [b a] simulated %d more cells, want 0", sims-2)
	}

	fresh, err := runCells([]cell{a, b}, Options{Budget: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range [][]smtsim.Result{{first[0], first[1]}, {first[2], first[1]}, {second[1], second[0]}} {
		if !reflect.DeepEqual(got, fresh) {
			t.Errorf("memoized results %+v differ from unmemoized %+v", got, fresh)
		}
	}
}
