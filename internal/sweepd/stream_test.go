package sweepd

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"smtsim"
	"smtsim/internal/cellstore"
)

// submitSweep posts specs as one sweep and returns its id.
func submitSweep(t testing.TB, client *Client, specs []cellstore.Spec) string {
	t.Helper()
	body, err := json.Marshal(submitRequest{Cells: specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(client.url("/v1/sweep"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := decodeJSON(resp, &sub); err != nil {
		t.Fatal(err)
	}
	return sub.ID
}

// recordStream runs specs through a fresh server and returns the raw
// bytes of the sweep's result stream.
func recordStream(t testing.TB, specs []cellstore.Spec) []byte {
	t.Helper()
	_, client, _ := newTestServer(t, nil)
	id := submitSweep(t, client, specs)
	resp, err := http.Get(client.url("/v1/sweeps/" + id + "/stream"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fakeDaemon answers a submit with a fixed sweep id and the stream with
// canned bytes, so a Client can be fed any stream without a server.
type fakeDaemon struct {
	stream      []byte
	contentType string
}

func (d fakeDaemon) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	body, ct := `{"id":"s1"}`, "application/json"
	if req.Method == http.MethodGet {
		body, ct = string(d.stream), d.contentType
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Header:     http.Header{"Content-Type": {ct}},
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    req,
	}, nil
}

func runFromStream(specs []cellstore.Spec, stream []byte, contentType string) ([]smtsim.Result, error) {
	c := &Client{
		Base: "http://sweepd.invalid",
		HTTP: &http.Client{Transport: fakeDaemon{stream: stream, contentType: contentType}},
	}
	return c.RunCells(specs)
}

// nonZeroResult sets every numeric field of a Result, found by
// reflection so that a new field is covered too.
func nonZeroResult() smtsim.Result {
	var r smtsim.Result
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		}
	}
	r.Threads = []smtsim.ThreadResult{{Benchmark: "equake", Committed: 7, IPC: 1.5, MispredictRate: 0.125}}
	return r
}

// TestStreamZeroFields streams a result whose fields are mostly zero
// right after one whose fields are all set. gob omits zero fields from
// a message, so a client that reused its decode target would hand back
// the earlier cell's values for the later cell's zeros.
func TestStreamZeroFields(t *testing.T) {
	specs := testSpecs(2)
	want := map[string]smtsim.Result{
		specs[0].Key(): nonZeroResult(),
		specs[1].Key(): {Threads: []smtsim.ThreadResult{{Benchmark: "twolf"}}},
	}
	_, client, _ := newTestServer(t, func(c *Config) {
		c.Workers = 1 // FIFO: specs[0] lands, and streams, first
		c.Simulate = func(s cellstore.Spec) (smtsim.Result, error) { return want[s.Key()], nil }
	})
	got, err := client.RunCells(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if !reflect.DeepEqual(got[i], want[s.Key()]) {
			t.Errorf("cell %d: got %+v, want %+v", i, got[i], want[s.Key()])
		}
	}
}

// TestClientRejectsBrokenStream feeds the client a recorded three-cell
// stream cut at every byte offset, and with each byte flipped in turn.
// Every cut stream is an error. A flipped byte may land in a value and
// decode to a different number, which no wire format without a checksum
// can notice, so a flipped stream must be an error or a complete result
// set; it must never panic or return with a cell missing.
func TestClientRejectsBrokenStream(t *testing.T) {
	specs := testSpecs(3)
	rec := recordStream(t, specs)
	got, err := runFromStream(specs, rec, gobType)
	if err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	for i, s := range specs {
		if want, _ := fakeSimulate(s); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("intact stream, cell %d: got %+v, want %+v", i, got[i], want)
		}
	}

	for cut := 0; cut < len(rec); cut++ {
		if _, err := runFromStream(specs, rec[:cut], gobType); err == nil {
			t.Fatalf("stream cut at byte %d/%d decoded without error", cut, len(rec))
		}
	}
	flipped := make([]byte, len(rec))
	for i := range rec {
		copy(flipped, rec)
		flipped[i] ^= 0xff
		res, err := runFromStream(specs, flipped, gobType)
		if err != nil {
			continue
		}
		for j, r := range res {
			if reflect.DeepEqual(r, smtsim.Result{}) {
				t.Fatalf("byte %d flipped: cell %d missing from a successful result set", i, j)
			}
		}
	}

	// An NDJSON stream from a daemon that predates the gob stream is a
	// clear error, not a gob decode failure.
	if _, err := runFromStream(specs, []byte(`{"index":0}`+"\n"), "application/x-ndjson"); err == nil ||
		!strings.Contains(err.Error(), "Content-Type") {
		t.Errorf("wrong Content-Type: err = %v", err)
	}
}

// TestSweepRetention submits more finished sweeps than the server
// keeps: the oldest answer 404, the newest retainedSweeps still
// answer, an older unfinished sweep is never evicted, and a stream
// opened before its sweep was evicted still completes.
func TestSweepRetention(t *testing.T) {
	specs := testSpecs(4)
	warm, heldU, heldS := specs[:2], specs[2], specs[3]
	releaseU, releaseS := make(chan struct{}), make(chan struct{})
	_, client, _ := newTestServer(t, func(c *Config) {
		c.Simulate = func(s cellstore.Spec) (smtsim.Result, error) {
			switch s.Key() {
			case heldU.Key():
				<-releaseU
			case heldS.Key():
				<-releaseS
			}
			return fakeSimulate(s)
		}
	})
	t.Cleanup(func() { close(releaseU) }) // runs before the server's Shutdown

	status := func(id string) (int, sweepStatus) {
		t.Helper()
		resp, err := http.Get(client.url("/v1/sweeps/" + id))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st sweepStatus
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, st
	}

	// Populate the store so that later sweeps of warm finish at submit.
	if _, err := client.RunCells(warm); err != nil {
		t.Fatal(err)
	}
	first := "s1"
	unfinished := submitSweep(t, client, []cellstore.Spec{heldU})
	streamed := submitSweep(t, client, append(append([]cellstore.Spec(nil), warm...), heldS))

	// Open the stream and read the first cell, so its handler holds the
	// run; then let the sweep finish.
	stream, err := http.Get(client.url("/v1/sweeps/" + streamed + "/stream"))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	dec := gob.NewDecoder(stream.Body)
	var line cellLine
	if err := dec.Decode(&line); err != nil || line.Done {
		t.Fatalf("first stream message: %+v, %v", line, err)
	}
	seen := map[int]bool{line.Index: true}
	close(releaseS)
	waitFor(t, 5*time.Second, func() bool {
		_, st := status(streamed)
		return st.Complete
	})

	// first and streamed are the two oldest finished sweeps; evictN
	// more are evicted after them.
	const evictN = 3
	var later []string
	for i := 0; i < retainedSweeps+evictN; i++ {
		later = append(later, submitSweep(t, client, warm))
	}
	for _, id := range append([]string{first, streamed}, later[:evictN]...) {
		if code, _ := status(id); code != http.StatusNotFound {
			t.Errorf("evicted sweep %s: status %d, want 404", id, code)
		}
	}
	for _, id := range later[evictN:] {
		if code, st := status(id); code != http.StatusOK || !st.Complete {
			t.Errorf("retained sweep %s: status %d complete=%v", id, code, st.Complete)
		}
	}
	if code, st := status(unfinished); code != http.StatusOK || st.Complete {
		t.Errorf("unfinished sweep %s: status %d complete=%v, want 200 and incomplete", unfinished, code, st.Complete)
	}

	for {
		var line cellLine
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("stream of evicted sweep broke off: %v", err)
		}
		if line.Done {
			break
		}
		seen[line.Index] = true
	}
	if len(seen) != len(warm)+1 {
		t.Errorf("stream of evicted sweep delivered %d cells, want %d", len(seen), len(warm)+1)
	}
}

// FuzzSubmit posts arbitrary bodies: the server never panics, answers
// 400 to anything that is not a valid cell set, and never creates a
// sweep for one.
func FuzzSubmit(f *testing.F) {
	for _, body := range []string{
		`{"cells":[{"benchmarks":["equake","twolf"],"scheduler":"2op-ooo-dispatch","iq_size":64,"budget":2000,"warmup":1000,"seed":2}]}`,
		`{"cells":[]}`,
		`{`,
		`{"cells":[{"benchmarks":["equake"],"scheduler":"quantum","iq_size":64,"budget":1000}]}`,
		`{"cells":[{"benchmarks":["equake"],"scheduler":"traditional","iq_size":64}]}`,
		`{"cells":[{"benchmarks":[],"scheduler":"traditional","iq_size":-1,"budget":1}]}`,
		`null`,
		`{"cells":[{"benchmarks":["equake"],"scheduler":"traditional","iq_size":64,"budget":1000,"seed":"2"}]}`,
	} {
		f.Add([]byte(body))
	}
	srv, _, _ := newTestServer(f, nil)
	h := srv.Handler()
	post := func(body io.Reader) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", body))
		return rec.Code
	}

	// A valid cell set one byte over the limit is refused whole.
	cell := `{"benchmarks":["equake"],"scheduler":"traditional","iq_size":64,"budget":1000},`
	over := io.MultiReader(strings.NewReader(`{"cells":[`),
		io.LimitReader(&repeatReader{s: cell}, maxSubmitBytes), strings.NewReader(cell[:len(cell)-1]+`]}`))
	if code := post(over); code != http.StatusBadRequest {
		f.Errorf("over-limit body: status %d, want 400", code)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		valid := true
		var req submitRequest
		if json.Unmarshal(body, &req) != nil || len(req.Cells) == 0 {
			valid = false
		}
		for _, c := range req.Cells {
			if c.Canonical().Validate() != nil {
				valid = false
			}
		}
		before := srv.StatsSnapshot().Sweeps
		code := post(bytes.NewReader(body))
		created := srv.StatsSnapshot().Sweeps - before
		switch {
		case valid && (code != http.StatusOK || created != 1):
			t.Fatalf("valid body %q: status %d, %d sweeps created", body, code, created)
		case !valid && (code != http.StatusBadRequest || created != 0):
			t.Fatalf("invalid body %q: status %d, %d sweeps created", body, code, created)
		}
	})
}

// repeatReader yields s over and over.
type repeatReader struct {
	s   string
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.s[r.off:])
		n += c
		r.off = (r.off + c) % len(r.s)
	}
	return n, nil
}

// FuzzClientStream feeds the client arbitrary stream bytes: it returns
// an error or a complete result set, and never panics.
func FuzzClientStream(f *testing.F) {
	specs := testSpecs(3)
	rec := recordStream(f, specs)
	f.Add(rec)
	f.Add(rec[:len(rec)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, stream []byte) {
		res, err := runFromStream(specs, stream, gobType)
		if err == nil && len(res) != len(specs) {
			t.Fatalf("%d results for %d cells without an error", len(res), len(specs))
		}
	})
}
