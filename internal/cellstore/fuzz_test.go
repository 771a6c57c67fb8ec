package cellstore

import (
	"bytes"
	"encoding/json"
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
