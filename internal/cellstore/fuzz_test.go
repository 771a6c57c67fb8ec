package cellstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// recordLine is one well-formed shard line for spec.
func recordLine(t testing.TB, spec Spec, ipc float64) []byte {
	t.Helper()
	b, err := json.Marshal(record{Hash: spec.Key(), Spec: spec.Canonical(), Result: testResult(ipc)})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// FuzzScanRecords feeds the shard parser arbitrary bytes, alone and as
// one damaged line between valid records. The parser never panics,
// never yields a record whose hash is not the hash of its spec, and
// recovers every valid record around the damage. The repaired bytes
// scan clean.
func FuzzScanRecords(f *testing.F) {
	before := [][]byte{recordLine(f, testSpec("equake", 64), 1), recordLine(f, testSpec("twolf", 32), 2)}
	after := [][]byte{recordLine(f, testSpec("gcc", 16), 3), recordLine(f, testSpec("gzip", 48), 4)}
	good := before[0]
	f.Add([]byte{})
	f.Add([]byte("{"))
	f.Add([]byte(`{"hash":"x"}`))
	f.Add(good[:len(good)-1])
	f.Add(bytes.Replace(good, []byte(`"iq_size":64`), []byte(`"iq_size":65`), 1))
	f.Add(append(append([]byte{}, good...), good[:20]...))

	f.Fuzz(func(t *testing.T, damage []byte) {
		check := func(b []byte) []record {
			recs, clean, _, _ := scanRecords(b)
			for _, r := range recs {
				if r.Hash != r.Spec.Key() {
					t.Fatalf("record hash %.12s is not the hash of its spec %.12s", r.Hash, r.Spec.Key())
				}
			}
			again, reclean, corrupt, torn := scanRecords(clean)
			if len(again) != len(recs) || corrupt != 0 || torn || !bytes.Equal(reclean, clean) {
				t.Fatalf("repaired bytes rescan to %d records (want %d), %d corrupt, torn=%v", len(again), len(recs), corrupt, torn)
			}
			return recs
		}
		check(damage)

		line := append(bytes.ReplaceAll(damage, []byte("\n"), nil), '\n')
		shard := bytes.Join(append(append(append([][]byte{}, before...), line), after...), nil)
		recs := check(shard)
		found := make(map[string]bool)
		for _, r := range recs {
			found[r.Hash] = true
		}
		for _, l := range append(append([][]byte{}, before...), after...) {
			var r record
			if err := json.Unmarshal(l, &r); err != nil {
				t.Fatal(err)
			}
			if !found[r.Hash] {
				t.Fatalf("valid record %.8s lost around a damaged line", r.Hash)
			}
		}
	})
}

// FuzzKeyPreimage checks that Key's hand-built preimage is exactly the
// versioned prefix followed by json.Marshal of the canonical spec, for
// any strings and numbers: plain ASCII takes the hand-built path, and
// escapes, non-ASCII text and invalid UTF-8 the json.Marshal fallback.
func FuzzKeyPreimage(f *testing.F) {
	f.Add("equake", "2op-ooo-dispatch", "", 64, 0, uint64(2000), uint64(1000), uint64(3))
	f.Add("twolf", "traditional", "none", 32, 300, uint64(2000), uint64(1000), uint64(3))
	f.Add("gcc", "2op-block", "icount", -1, -7, uint64(1), uint64(0), uint64(0))
	f.Add("", "", "", 0, 0, uint64(0), uint64(0), uint64(0))
	// Each string encoding/json rewrites, alone in each string field.
	for i, odd := range []string{
		`"`, `\`, "<", ">", "&", "\x00", "\n", "\x1f", "\x7f", "\x80",
		"équake", "日本", "\u2028", "\xff\xfe", "ok\xc3",
	} {
		fields := [3]string{"gzip", "traditional", "icount"}
		fields[i%3] = "a" + odd + "z"
		f.Add(fields[0], fields[1], fields[2], 1<<30, -1<<30, uint64(i), uint64(i), uint64(i))
	}
	f.Add("a", "b", "c", 0, 0, uint64(1<<64-1), uint64(0), uint64(1<<63))

	// Every field set, found by reflection so that a new one is too.
	var full Spec
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int:
			fv.SetInt(int64(i + 1))
		case reflect.Uint64:
			fv.SetUint(uint64(i + 1))
		case reflect.String:
			fv.SetString(fmt.Sprintf("field%d", i))
		case reflect.Slice:
			fv.Set(reflect.ValueOf([]string{"equake", "gzip"}))
		default:
			f.Fatalf("no case for Spec field kind %s", fv.Kind())
		}
	}
	if j, err := json.Marshal(full); err != nil || string(full.appendPreimage(nil)) != keyPrefix+string(j) {
		f.Fatalf("preimage of %+v is not the prefix and its JSON (%v): a field appendPreimage does not write?", full, err)
	}

	f.Fuzz(func(t *testing.T, bench, sched, gate string, iq, mem int, budget, warmup, seed uint64) {
		for _, benchmarks := range [][]string{nil, {}, {bench}, {bench, "gzip", bench}} {
			s := Spec{
				Benchmarks: benchmarks, Scheduler: sched, IQSize: iq, FetchGate: gate,
				MemoryLatency: mem, Budget: budget, Warmup: warmup, Seed: seed,
			}
			j, err := json.Marshal(s.CanonicalShared())
			if err != nil {
				t.Fatal(err)
			}
			want := keyPrefix + string(j)
			if got := string(s.appendPreimage(nil)); got != want {
				t.Fatalf("preimage of %#v:\n got %q\nwant %q", s, got, want)
			}
		}
	})
}
