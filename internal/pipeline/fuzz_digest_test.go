package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	icore "smtsim/internal/core"
)

var updateDigests = flag.Bool("update", false, "rewrite the fuzz commit-digest golden file")

// fuzzCorpusDir holds FuzzPipeline's checked-in corpus.
var fuzzCorpusDir = filepath.Join("testdata", "fuzz", "FuzzPipeline")

// TestFuzzCommitDigestsGolden pins, for every FuzzPipeline seed and
// corpus case under each scheduler, the cycle count and a sha256 of the
// per-thread committed (trace seq, PC) streams against
// testdata/fuzz_commit_digests.golden. FuzzPipeline compares machines
// against each other within one tree; this test compares the tree
// against its own history, so a change that moves every machine the
// same way still shows. A corpus file without a golden line fails the
// test: re-bless with -update only when the behavior change is intended.
func TestFuzzCommitDigestsGolden(t *testing.T) {
	cases, err := fuzzDigestCases()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range cases {
		for _, policy := range []icore.Policy{icore.InOrder, icore.TwoOpBlock, icore.TwoOpOOOD} {
			cycles, streams := runFuzzInput(t, c.in, policy, false, true)
			got = append(got, fmt.Sprintf("%s %s cycles=%d sha256=%s",
				c.name, policy, cycles, commitDigest(streams)))
		}
	}

	golden := filepath.Join("testdata", "fuzz_commit_digests.golden")
	if *updateDigests {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", golden, len(got))
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	want := map[string]string{} // "case policy" -> whole line
	for _, line := range strings.Split(strings.TrimSpace(string(wantBytes)), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[f[0]+" "+f[1]] = line
	}
	for _, line := range got {
		f := strings.Fields(line)
		key := f[0] + " " + f[1]
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("no golden line for %s (new corpus file or seed? re-bless with -update)", key)
		case w != line:
			t.Errorf("commit digest drifted:\n got: %s\nwant: %s", line, w)
		}
		delete(want, key)
	}
	for _, line := range want {
		t.Errorf("golden line names no seed or corpus case: %s", line)
	}
}

// fuzzDigestCase is one named FuzzPipeline input, named the way go test
// names its subtest.
type fuzzDigestCase struct {
	name string
	in   fuzzInput
}

// fuzzDigestCases lists FuzzPipeline's f.Add seeds followed by its
// corpus files in name order.
func fuzzDigestCases() ([]fuzzDigestCase, error) {
	var cases []fuzzDigestCase
	for i, in := range fuzzSeeds {
		cases = append(cases, fuzzDigestCase{name: fmt.Sprintf("seed#%d", i), in: in})
	}
	ents, err := os.ReadDir(fuzzCorpusDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		in, err := readFuzzCorpusFile(filepath.Join(fuzzCorpusDir, name))
		if err != nil {
			return nil, err
		}
		cases = append(cases, fuzzDigestCase{name: name, in: in})
	}
	return cases, nil
}

// readFuzzCorpusFile decodes one "go test fuzz v1" corpus file of
// FuzzPipeline's signature: four byte values, two uint16s, a uint64 and
// a uint16.
func readFuzzCorpusFile(path string) (fuzzInput, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return fuzzInput{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 9 || lines[0] != "go test fuzz v1" {
		return fuzzInput{}, fmt.Errorf("%s: not an 8-value go test fuzz v1 file", path)
	}
	wantTypes := []string{"byte", "byte", "byte", "byte", "uint16", "uint16", "uint64", "uint16"}
	vals := make([]uint64, len(wantTypes))
	for i, typ := range wantTypes {
		line := lines[i+1]
		arg, ok := strings.CutPrefix(line, typ+"(")
		if arg, ok = strings.CutSuffix(arg, ")"); !ok {
			return fuzzInput{}, fmt.Errorf("%s: value %d is %q, want %s(...)", path, i, line, typ)
		}
		if typ == "byte" {
			if len(arg) < 3 || arg[0] != '\'' || arg[len(arg)-1] != '\'' {
				return fuzzInput{}, fmt.Errorf("%s: value %d: bad byte literal %q", path, i, arg)
			}
			r, _, tail, err := strconv.UnquoteChar(arg[1:len(arg)-1], '\'')
			if err != nil || tail != "" || r > 0xff {
				return fuzzInput{}, fmt.Errorf("%s: value %d: bad byte literal %q", path, i, arg)
			}
			vals[i] = uint64(r)
			continue
		}
		bits := 16
		if typ == "uint64" {
			bits = 64
		}
		v, err := strconv.ParseUint(arg, 0, bits)
		if err != nil {
			return fuzzInput{}, fmt.Errorf("%s: value %d: %v", path, i, err)
		}
		vals[i] = v
	}
	return fuzzInput{
		nThreads: uint8(vals[0]), mixBits: uint8(vals[1]), deadlock: uint8(vals[2]), dabCap: uint8(vals[3]),
		iqSize: uint16(vals[4]), wdLimit: uint16(vals[5]), seed: vals[6], budget: uint16(vals[7]),
	}, nil
}

// commitDigest hashes the per-thread committed streams: for each thread
// in order, its length, then every (trace seq, PC) pair, all as
// little-endian uint64s.
func commitDigest(streams [][]commitRec) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range streams {
		put(uint64(len(s)))
		for _, r := range s {
			put(r.seq)
			put(r.pc)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
