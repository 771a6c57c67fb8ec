package sweepd

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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
// bytes of the result stream that answers the client's submit.
func recordStream(t testing.TB, specs []cellstore.Spec) []byte {
	t.Helper()
	_, client, _ := newTestServer(t, nil)
	body, err := json.Marshal(submitRequest{Cells: specs})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, client.url("/v1/sweep"), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", frameType)
	resp, err := http.DefaultClient.Do(req)
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

// readLine reads the next frame of r through readFrame, decoding a
// result into a fresh Result, and returns it as a cellLine.
func readLine(r io.Reader, buf []byte) (cellLine, []byte, error) {
	var res *smtsim.Result
	h, buf, err := readFrame(r, buf, func(int) (*smtsim.Result, []string) {
		res = new(smtsim.Result)
		return res, nil
	})
	if err != nil {
		return cellLine{}, buf, err
	}
	switch h.kind {
	case frameDone:
		return cellLine{Done: true, Total: h.total}, buf, nil
	case frameError:
		return cellLine{Index: h.index, Hash: hex.EncodeToString(h.hash[:]), Error: h.err}, buf, nil
	}
	return cellLine{Index: h.index, Hash: hex.EncodeToString(h.hash[:]), Result: res}, buf, nil
}

// fakeDaemon answers a submit with canned bytes, so a Client can be fed
// any stream without a server.
type fakeDaemon struct {
	stream      []byte
	contentType string
	status      int // 0 = 200
}

func (d fakeDaemon) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	if d.status == 0 {
		d.status = http.StatusOK
	}
	return &http.Response{
		StatusCode: d.status,
		Status:     fmt.Sprintf("%d %s", d.status, http.StatusText(d.status)),
		Header:     http.Header{"Content-Type": {d.contentType}},
		Body:       io.NopCloser(bytes.NewReader(d.stream)),
		Request:    req,
	}, nil
}

func runFromStream(specs []cellstore.Spec, stream []byte, contentType string) ([]smtsim.Result, error) {
	return runFromDaemon(specs, fakeDaemon{stream: stream, contentType: contentType})
}

func runFromDaemon(specs []cellstore.Spec, d fakeDaemon) ([]smtsim.Result, error) {
	c := &Client{Base: "http://sweepd.invalid", HTTP: &http.Client{Transport: d}}
	return c.RunCells(specs)
}

// nonZeroResult sets every field of a Result and of its two
// ThreadResults, found by reflection so that a new field is covered too.
func nonZeroResult() smtsim.Result {
	var r smtsim.Result
	r.Threads = make([]smtsim.ThreadResult, 2)
	setFields(reflect.ValueOf(&r).Elem(), 1)
	for i := range r.Threads {
		setFields(reflect.ValueOf(&r.Threads[i]).Elem(), 100*(i+1))
	}
	return r
}

func setFields(v reflect.Value, base int) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(base + i))
		case reflect.Uint64:
			f.SetUint(uint64(base + i))
		case reflect.Float64:
			f.SetFloat(float64(base+i) + 0.25)
		case reflect.String:
			f.SetString(strings.Repeat("x", base+i))
		case reflect.Slice:
		default:
			panic("setFields: no case for field kind " + f.Kind().String())
		}
	}
}

// TestFrameRoundTrip encodes every frame kind and decodes it back,
// including a result with every field set and one with negative
// integers, -0.0, NaN and infinities, which it compares bit for bit
// (DeepEqual holds -0.0 equal to 0.0 and NaN unequal to itself).
func TestFrameRoundTrip(t *testing.T) {
	hash := testSpecs(1)[0].Key()
	full := nonZeroResult()
	odd := smtsim.Result{
		Cycles: -5, Comparators: -7, IPC: math.Copysign(0, -1),
		IQResidency: math.NaN(), L2MissRate: math.Inf(-1), SchedulerEDP: math.Inf(1),
		Threads: []smtsim.ThreadResult{{MispredictRate: math.Copysign(0, -1)}},
	}
	lines := []cellLine{
		{Index: 3, Hash: hash, Result: &full},
		{Index: 1 << 20, Hash: hash, Result: &odd},
		{Index: 0, Hash: hash, Result: &smtsim.Result{}},
		{Index: 2, Hash: hash, Error: "simulating: deadlock"},
		{Done: true, Total: 2006},
	}
	var stream []byte
	for _, l := range lines {
		stream = appendFrame(stream, l)
	}
	bits := func(r *smtsim.Result) []uint64 {
		return []uint64{uint64(r.Cycles), uint64(r.Comparators), math.Float64bits(r.IPC),
			math.Float64bits(r.IQResidency), math.Float64bits(r.L2MissRate),
			math.Float64bits(r.SchedulerEDP), math.Float64bits(r.Threads[0].MispredictRate)}
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range lines {
		got, b, err := readLine(r, buf)
		if buf = b; err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want.Result == &odd {
			if g, w := bits(got.Result), bits(&odd); got.Index != want.Index || !reflect.DeepEqual(g, w) {
				t.Errorf("frame %d: index %d, bits %x; want %d, %x", i, got.Index, g, want.Index, w)
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, _, err := readLine(r, buf); err != io.EOF {
		t.Errorf("after the last frame: err = %v, want io.EOF", err)
	}
}

// TestStreamZeroFields streams a result whose fields are mostly zero
// right after one whose fields are all set: the later cell must come
// back with its own zeros, not the earlier cell's values.
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
// stream cut at every byte offset, and with each byte in turn flipped
// whole and bit by bit. Every cut stream is an error. Every flipped
// stream is an error or exactly the original cell set: each frame
// carries a CRC-32C, so a flip inside a value cannot decode to another
// number.
func TestClientRejectsBrokenStream(t *testing.T) {
	specs := testSpecs(3)
	want := make([]smtsim.Result, len(specs))
	for i, s := range specs {
		want[i], _ = fakeSimulate(s)
	}
	rec := recordStream(t, specs)
	got, err := runFromStream(specs, rec, frameType)
	if err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("intact stream: got %+v, want %+v", got, want)
	}

	for cut := 0; cut < len(rec); cut++ {
		if _, err := runFromStream(specs, rec[:cut], frameType); err == nil {
			t.Fatalf("stream cut at byte %d/%d decoded without error", cut, len(rec))
		}
	}
	flipped := make([]byte, len(rec))
	for i := range rec {
		for _, mask := range []byte{0xff, 1, 2, 4, 8, 16, 32, 64, 128} {
			copy(flipped, rec)
			flipped[i] ^= mask
			res, err := runFromStream(specs, flipped, frameType)
			if err == nil && !reflect.DeepEqual(res, want) {
				t.Fatalf("byte %d flipped by %#02x: another cell set without an error", i, mask)
			}
		}
	}
	if _, err := runFromStream(specs, append(rec[:len(rec):len(rec)], 0), frameType); err == nil {
		t.Error("a byte after the terminal frame decoded without error")
	}

	// A daemon that predates the frame stream answers the submit with
	// its JSON summary: a clear version-skew error, not a decode failure.
	if _, err := runFromStream(specs, []byte(`{"id":"s1"}`+"\n"), "application/json"); err == nil ||
		!strings.Contains(err.Error(), "Content-Type") {
		t.Errorf("wrong Content-Type: err = %v", err)
	}
	// A daemon that predates binary spec bodies tries to decode the body
	// as JSON and answers 400: the error names the version skew too.
	old := fakeDaemon{
		status:      http.StatusBadRequest,
		contentType: "application/json",
		stream:      []byte(`{"error":"decoding request: invalid character '\\x03' looking for beginning of value"}` + "\n"),
	}
	if _, err := runFromDaemon(specs, old); err == nil || !strings.Contains(err.Error(), "another version") {
		t.Errorf("400 from a JSON-only daemon: err = %v", err)
	}
	// A 400 for a cell the server rejects is not version skew.
	old.stream = []byte(`{"error":"cell 0: cellstore: non-positive budget"}` + "\n")
	if _, err := runFromDaemon(specs, old); err == nil || strings.Contains(err.Error(), "another version") {
		t.Errorf("400 for an invalid cell: err = %v", err)
	}
}

// TestSpecsRoundTrip encodes specs with every cellstore.Spec field set,
// found by reflection so that a new field is covered too, and decodes
// them back. Repeated strings decode to one string, and each decoded
// benchmark list is capped, so appending to one cannot write into the
// next. Every cut of the body is an error, and every flipped byte an
// error or the original specs.
func TestSpecsRoundTrip(t *testing.T) {
	var specs []cellstore.Spec
	for i := 0; i < 3; i++ {
		var s cellstore.Spec
		v := reflect.ValueOf(&s).Elem()
		for j := 0; j < v.NumField(); j++ {
			switch f := v.Field(j); f.Kind() {
			case reflect.Int:
				f.SetInt(int64(-1000 * (j + 1)))
			case reflect.Uint64:
				f.SetUint(uint64(1<<40 + j))
			case reflect.String:
				f.SetString(fmt.Sprintf("field%d", j))
			case reflect.Slice:
				f.Set(reflect.ValueOf([]string{"equake", fmt.Sprintf("bench%d", i)}))
			default:
				t.Fatalf("no case for Spec field kind %s", f.Kind())
			}
		}
		specs = append(specs, s)
	}
	specs = append(specs, cellstore.Spec{Benchmarks: []string{}})
	body := appendSpecs(nil, specs)
	got, err := decodeSpecs(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, specs) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, specs)
	}
	if unsafe.StringData(got[0].Scheduler) != unsafe.StringData(got[1].Scheduler) ||
		unsafe.StringData(got[0].Benchmarks[0]) != unsafe.StringData(got[2].Benchmarks[0]) {
		t.Error("a repeated string decoded to separate copies")
	}
	_ = append(got[0].Benchmarks, "spill")
	if !reflect.DeepEqual(got[1], specs[1]) {
		t.Errorf("appending to one decoded list changed the next spec: %+v", got[1])
	}

	for cut := 0; cut < len(body); cut++ {
		if _, err := decodeSpecs(body[:cut]); err == nil {
			t.Fatalf("body cut at byte %d/%d decoded without error", cut, len(body))
		}
	}
	flipped := make([]byte, len(body))
	for i := range body {
		for _, mask := range []byte{0xff, 1, 2, 4, 8, 16, 32, 64, 128} {
			copy(flipped, body)
			flipped[i] ^= mask
			if res, err := decodeSpecs(flipped); err == nil && !reflect.DeepEqual(res, specs) {
				t.Fatalf("byte %d flipped by %#02x: other specs without an error", i, mask)
			}
		}
	}
}

// TestClientReusesConnection runs many batches, cold and warm, through
// one Client: every one must travel over the first TCP connection. A
// client that stopped reading at the terminal frame would leave the
// body unread, and the transport would dial anew for each batch.
func TestClientReusesConnection(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	client := &Client{Base: ts.URL, HTTP: ts.Client()}
	specs := testSpecs(30)
	for i := 0; i < 20; i++ {
		batch := specs[i%3*10 : i%3*10+10]
		if _, err := client.RunCells(batch); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("20 batches opened %d connections, want 1", n)
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
	body := bufio.NewReader(stream.Body)
	line, buf, err := readLine(body, nil)
	if err != nil || line.Done {
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
		line, b, err := readLine(body, buf)
		if buf = b; err != nil {
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

// FuzzSubmit posts arbitrary bodies, as JSON or, with binary set, as
// specType bodies: the server never panics, answers 400 to anything
// that is not a valid cell set, and never creates a sweep for one. A
// valid binary body gets the same hashes and results as the JSON body
// of the same specs.
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
		f.Add([]byte(body), false)
	}
	valid := testSpecs(3)
	valid[1].FetchGate = "none"
	for _, specs := range [][]cellstore.Spec{
		valid,
		nil,
		{{Benchmarks: []string{"equake"}, Scheduler: "quantum", IQSize: 64, Budget: 1000}},
		{{Benchmarks: []string{"equake"}, Scheduler: "traditional", IQSize: -1, Budget: 1000}},
	} {
		f.Add(appendSpecs(nil, specs), true)
	}
	body := appendSpecs(nil, valid)
	f.Add(body[:len(body)-1], true)

	srv, _, _ := newTestServer(f, nil)
	h := srv.Handler()
	post := func(body io.Reader, contentType string, stream bool) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", body)
		req.Header.Set("Content-Type", contentType)
		if stream {
			req.Header.Set("Accept", frameType)
		}
		h.ServeHTTP(rec, req)
		return rec
	}

	// A valid cell set one byte over the limit is refused whole.
	cell := `{"benchmarks":["equake"],"scheduler":"traditional","iq_size":64,"budget":1000},`
	over := io.MultiReader(strings.NewReader(`{"cells":[`),
		io.LimitReader(&repeatReader{s: cell}, maxSubmitBytes), strings.NewReader(cell[:len(cell)-1]+`]}`))
	if code := post(over, "application/json", false).Code; code != http.StatusBadRequest {
		f.Errorf("over-limit body: status %d, want 400", code)
	}

	f.Fuzz(func(t *testing.T, body []byte, binary bool) {
		var cells []cellstore.Spec
		contentType := "application/json"
		ok := true
		if binary {
			contentType = specType
			var err error
			cells, err = decodeSpecs(body)
			ok = err == nil
		} else {
			var req submitRequest
			ok = json.Unmarshal(body, &req) == nil
			cells = req.Cells
		}
		if len(cells) == 0 {
			ok = false
		}
		for _, c := range cells {
			if c.Canonical().Validate() != nil {
				ok = false
			}
		}
		before := srv.StatsSnapshot().Sweeps
		rec := post(bytes.NewReader(body), contentType, binary)
		created := srv.StatsSnapshot().Sweeps - before
		switch {
		case ok && (rec.Code != http.StatusOK || created != 1):
			t.Fatalf("valid body %q: status %d, %d sweeps created", body, rec.Code, created)
		case !ok && (rec.Code != http.StatusBadRequest || created != 0):
			t.Fatalf("invalid body %q: status %d, %d sweeps created", body, rec.Code, created)
		case !ok || !binary:
			return
		}

		// The same specs as JSON, where JSON carries them exactly (it
		// cannot carry invalid UTF-8).
		asJSON, err := json.Marshal(submitRequest{Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		var back submitRequest
		if err := json.Unmarshal(asJSON, &back); err != nil || !reflect.DeepEqual(back.Cells, cells) {
			return
		}
		want := post(bytes.NewReader(asJSON), "application/json", true)
		if got, want := streamedCells(t, rec.Body), streamedCells(t, want.Body); !reflect.DeepEqual(got, want) {
			t.Fatalf("binary body %q: streamed\n%+v\nJSON body streamed\n%+v", body, got, want)
		}
	})
}

// streamedCells reads a whole result stream and returns its cells by
// index.
func streamedCells(t *testing.T, r io.Reader) map[int]cellLine {
	t.Helper()
	cells := make(map[int]cellLine)
	var buf []byte
	for {
		line, b, err := readLine(r, buf)
		if buf = b; err != nil {
			t.Fatalf("stream: %v", err)
		}
		if line.Done {
			return cells
		}
		cells[line.Index] = line
	}
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
		res, err := runFromStream(specs, stream, frameType)
		if err == nil && len(res) != len(specs) {
			t.Fatalf("%d results for %d cells without an error", len(res), len(specs))
		}
	})
}
