// Package sweepd is the sweep service: an HTTP front end over the
// content-addressed cell store (internal/cellstore) with a work queue
// of simulator workers behind it. Repeated figure and report requests
// are cache hits; only novel cells simulate, exactly once each, no
// matter how many clients ask for them concurrently (singleflight). A
// Server is the single writer of its store (see cellstore.Store).
//
// API (every response but the stream is JSON):
//
//	POST /v1/sweep              submit a cell set, returns a sweep id
//	GET  /v1/sweeps/{id}        sweep status + results so far
//	GET  /v1/sweeps/{id}/stream frames: one per cell as it lands
//	GET  /v1/cells/{hash}       one cell's cached result
//	GET  /v1/stats              hit/miss/inflight/simulation counters
//
// A POST body is JSON ({"cells": [spec, ...]}, what curl sends), or,
// with Content-Type application/x-sweepd-specs, the binary spec body
// of frame.go, which Client sends. Both decode to the same specs and
// share everything after decoding: canonicalization, validation,
// hashing, store hits and the stream. The stream is a sequence of
// binary frames (frame.go), Content-Type application/x-sweepd-frames,
// ending with a done frame. A POST whose Accept header names that type
// is answered with the sweep's stream instead of its id, so a client
// runs a batch in one exchange. Only Client decodes the stream; the
// server never does. The server keeps the newest retainedSweeps
// finished sweeps; an older id answers 404.
package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"

	"smtsim"
	"smtsim/internal/cellstore"
	"smtsim/internal/sweep"
)

// Config configures a Server.
type Config struct {
	// Store is the cell store (required).
	Store *cellstore.Store
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// Simulate runs one cell. nil = sweep.SimulateSpec (the in-process
	// simulator). Tests inject counting or blocking hooks here.
	Simulate func(cellstore.Spec) (smtsim.Result, error)
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// outcome is one finished cell: a result or an error string.
type outcome struct {
	Result smtsim.Result
	Err    string
}

// flight is the singleflight entry for one cell hash that is queued or
// simulating. All sweeps that want the cell attach waiters; the first
// submission enqueues it. Flights live in Server.flights and share the
// Server's lock; spec is immutable after the constructing enqueue.
type flight struct {
	spec cellstore.Spec
	//smt:guarded-by(Server.mu)
	waiters []waiter
	//smt:guarded-by(Server.mu)
	done bool
	//smt:guarded-by(Server.mu)
	out outcome
}

type waiter struct {
	run *sweepRun
	idx int
}

// retainedSweeps bounds how many finished sweeps the server keeps
// answering for. Unfinished sweeps are never evicted.
const retainedSweeps = 64

// maxSubmitBytes bounds a POST /v1/sweep body.
const maxSubmitBytes = 64 << 20

// sweepRun tracks one submitted cell set. id, hashes and specs are
// immutable once the run is published in Server.sweeps; the mutable
// completion state below mu is its own lock domain (workers complete
// cells while handlers snapshot progress, without touching Server.mu).
type sweepRun struct {
	id     string
	hashes []string
	specs  []cellstore.Spec

	mu sync.Mutex
	// outcomes is index-aligned with hashes, nil until the cell lands.
	//smt:guarded-by(mu)
	outcomes []*outcome
	// landed holds indices in completion order (the stream order).
	//smt:guarded-by(mu)
	landed []int
	//smt:guarded-by(mu)
	remaining int
	// landedCh is closed, and replaced, whenever cells land: streams
	// wait on it instead of polling.
	//smt:close-owner(sweepRun.wakeLocked)
	landedCh chan struct{} //smt:guarded-by(mu)
}

// complete records one cell's outcome; idx may land only once.
func (r *sweepRun) complete(idx int, out outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.landLocked(idx, &out) {
		r.wakeLocked()
	}
}

// completeHits records store hits: cell idx lands with outs[idx], for
// each idx in hits. It takes mu once and wakes streams once.
func (r *sweepRun) completeHits(hits []int, outs []outcome) {
	if len(hits) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, idx := range hits {
		r.landLocked(idx, &outs[idx])
	}
	r.wakeLocked()
}

// landLocked records cell idx's outcome unless the cell has landed
// already, and reports whether it did.
//
//smt:locked(mu)
func (r *sweepRun) landLocked(idx int, o *outcome) bool {
	if r.outcomes[idx] != nil {
		return false
	}
	r.outcomes[idx] = o
	r.landed = append(r.landed, idx)
	r.remaining--
	return true
}

// wakeLocked wakes every stream waiting for cells to land.
//
//smt:locked(mu)
func (r *sweepRun) wakeLocked() {
	close(r.landedCh)
	r.landedCh = make(chan struct{})
}

// finished reports whether every cell has landed.
func (r *sweepRun) finished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.remaining == 0
}

// Stats is the /v1/stats payload.
type Stats struct {
	// CacheHits counts submitted cells answered straight from the
	// store; Misses counts cells that had to be queued.
	CacheHits int64 `json:"cache_hits"`
	Misses    int64 `json:"misses"`
	// Simulations counts cells this process actually simulated — the
	// end-to-end proof that a warm rerun is free is this staying flat.
	Simulations int64 `json:"simulations"`
	// Dedupped counts submitted cells that attached to an already
	// queued or in-flight identical cell (singleflight).
	Dedupped int64 `json:"dedupped"`
	// Inflight is the number of cells simulating right now; QueueDepth
	// is the number waiting for a worker.
	Inflight   int64 `json:"inflight"`
	QueueDepth int64 `json:"queue_depth"`
	// Sweeps counts POST /v1/sweep submissions.
	Sweeps int64 `json:"sweeps"`
	// Store mirrors the cell store's own counters (torn tails and
	// corrupt records repaired on open, raw get/put traffic).
	Store cellstore.Stats `json:"store"`
}

// Server is the sweep service. Create with New, serve via Handler,
// stop with Shutdown (which checkpoints the queue so a restart resumes
// where it left off).
type Server struct {
	cfg   Config
	store *cellstore.Store
	mux   *http.ServeMux

	mu sync.Mutex
	// queue is the FIFO of cell hashes awaiting a worker.
	//smt:guarded-by(mu)
	queue []string
	//smt:guarded-by(mu)
	flights map[string]*flight
	//smt:guarded-by(mu)
	sweeps map[string]*sweepRun
	// order holds the runs in sweeps, oldest first.
	//smt:guarded-by(mu)
	order []*sweepRun
	//smt:guarded-by(mu)
	nextSweep int
	//smt:guarded-by(mu)
	stats Stats

	// wake carries one token per enqueue to sleeping workers. It holds
	// as many tokens as there are workers, so a send that finds it full
	// is redundant: every worker that sleeps afterwards takes a token
	// and re-checks the queue.
	wake chan struct{}
	//smt:close-owner(Server.Shutdown)
	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds a Server, restores any queue checkpoint a previous
// process left in the store directory, and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("sweepd: Config.Store is required")
	}
	if cfg.Simulate == nil {
		cfg.Simulate = sweep.SimulateSpec
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:     cfg,
		store:   cfg.Store,
		mux:     http.NewServeMux(),
		flights: make(map[string]*flight),
		sweeps:  make(map[string]*sweepRun),
		wake:    make(chan struct{}, cfg.workers()),
		quit:    make(chan struct{}),
	}
	s.mux.HandleFunc("POST /v1/sweep", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweep)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/cells/{hash}", s.handleCell)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	if err := s.restoreCheckpoint(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops the worker pool at the next cell boundary and
// checkpoints still-pending cells to the store directory, so the next
// New over the same store re-enqueues them. The HTTP handler keeps
// answering reads; pending sweeps simply stop progressing.
func (s *Server) Shutdown() error {
	close(s.quit)
	s.wg.Wait()
	return s.checkpoint()
}

func (s *Server) checkpointPath() string {
	return filepath.Join(s.store.Dir(), "queue.json")
}

// checkpoint persists every queued-or-unfinished cell spec.
func (s *Server) checkpoint() error {
	s.mu.Lock()
	var pending []cellstore.Spec
	for _, f := range s.flights {
		if !f.done {
			pending = append(pending, f.spec)
		}
	}
	s.mu.Unlock()
	if len(pending) == 0 {
		err := os.Remove(s.checkpointPath())
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("sweepd: %w", err)
		}
		return nil
	}
	b, err := json.Marshal(struct {
		Pending []cellstore.Spec `json:"pending"`
	}{pending})
	if err != nil {
		return fmt.Errorf("sweepd: %w", err)
	}
	if err := cellstore.AtomicWrite(s.checkpointPath(), append(b, '\n')); err != nil {
		return fmt.Errorf("sweepd: %w", err)
	}
	s.cfg.Logf("sweepd: checkpointed %d pending cells", len(pending))
	return nil
}

// restoreCheckpoint re-enqueues cells a previous process shut down
// with. Cells already in the store resolve instantly through the
// normal worker path.
func (s *Server) restoreCheckpoint() error {
	b, err := os.ReadFile(s.checkpointPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("sweepd: %w", err)
	}
	var doc struct {
		Pending []cellstore.Spec `json:"pending"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("sweepd: corrupt queue checkpoint %s: %w", s.checkpointPath(), err)
	}
	for _, spec := range doc.Pending {
		if spec.Validate() != nil {
			continue
		}
		s.enqueue(spec, spec.Key(), nil)
	}
	if err := os.Remove(s.checkpointPath()); err != nil {
		return fmt.Errorf("sweepd: %w", err)
	}
	s.cfg.Logf("sweepd: restored %d checkpointed cells", len(doc.Pending))
	return nil
}

// enqueue registers a cell, whose Spec.Key is hash, for simulation,
// deduplicating against queued and in-flight identical cells, and
// attaches w (if non-nil) to its completion.
func (s *Server) enqueue(spec cellstore.Spec, hash string, w *waiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.flights[hash]
	if !ok {
		f = &flight{spec: spec}
		s.flights[hash] = f
		s.queue = append(s.queue, hash)
		s.stats.QueueDepth++
	} else if !f.done {
		s.stats.Dedupped++
	}
	if w != nil {
		if f.done {
			w.run.complete(w.idx, f.out)
		} else {
			f.waiters = append(f.waiters, *w)
		}
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// finish marks a flight done and fans its outcome out to every waiter.
// A successful flight entry stays (done) so late duplicate submissions
// resolve without touching the store; memory is bounded by unique
// cells. A failed flight is deleted so a future submission retries
// instead of replaying a possibly transient error forever.
func (s *Server) finish(hash string, out outcome) {
	s.mu.Lock()
	f := s.flights[hash]
	if f == nil || f.done {
		s.mu.Unlock()
		return
	}
	f.done = true
	f.out = out
	waiters := f.waiters
	f.waiters = nil
	if out.Err != "" {
		delete(s.flights, hash)
	}
	s.mu.Unlock()
	for _, w := range waiters {
		w.run.complete(w.idx, out)
	}
}

// --- HTTP handlers ----------------------------------------------------

type submitRequest struct {
	Cells []cellstore.Spec `json:"cells"`
}

type submitResponse struct {
	ID     string   `json:"id"`
	Total  int      `json:"total"`
	Cached int      `json:"cached"`
	Hashes []string `json:"hashes"`
}

// errDecodingRequest begins the error a POST /v1/sweep answers when
// its JSON body does not decode. A server that predates specType bodies
// answers a Client's binary body with it too.
const errDecodingRequest = "decoding request"

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var cells []cellstore.Spec
	if mt, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";"); strings.TrimSpace(mt) == specType {
		if cells, err = decodeSpecs(body); err != nil {
			httpError(w, http.StatusBadRequest, "decoding spec body: %v", err)
			return
		}
	} else {
		var req submitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, errDecodingRequest+": %v", err)
			return
		}
		cells = req.Cells
	}
	if len(cells) == 0 {
		httpError(w, http.StatusBadRequest, "empty cell set")
		return
	}
	// Both decoders build fresh benchmark lists, so canonicalizing need
	// not copy them.
	for i := range cells {
		cells[i] = cells[i].CanonicalShared()
		if err := cells[i].Validate(); err != nil {
			httpError(w, http.StatusBadRequest, "cell %d: %v", i, err)
			return
		}
	}

	// Hash every cell before the run is published: once it is in
	// s.sweeps, handlers on other goroutines read run.hashes, so the
	// slice must be immutable by then.
	hashes := make([]string, len(cells))
	for i, spec := range cells {
		hashes[i] = spec.Key()
	}
	run := &sweepRun{
		specs:     cells,
		hashes:    hashes,
		outcomes:  make([]*outcome, len(cells)),
		remaining: len(cells),
		landedCh:  make(chan struct{}),
	}

	// Land the store hits before the run is published, all at once;
	// outs[i] holds cell i's outcome if it is a hit.
	outs := make([]outcome, len(cells))
	hits := make([]int, 0, len(cells))
	var misses []int
	for i, hash := range hashes {
		if res, ok, err := s.store.Get(hash); err == nil && ok {
			outs[i].Result = res
			hits = append(hits, i)
		} else {
			misses = append(misses, i)
		}
	}
	run.completeHits(hits, outs)

	s.mu.Lock()
	s.evictLocked()
	s.nextSweep++
	run.id = fmt.Sprintf("s%d", s.nextSweep)
	s.sweeps[run.id] = run
	s.order = append(s.order, run)
	s.stats.Sweeps++
	s.stats.CacheHits += int64(len(hits))
	s.stats.Misses += int64(len(misses))
	s.mu.Unlock()

	for _, i := range misses {
		s.enqueue(cells[i], hashes[i], &waiter{run: run, idx: i})
	}
	s.cfg.Logf("sweepd: sweep %s: %d cells, %d cached", run.id, len(cells), len(hits))
	if accepts(r, frameType) {
		writeStream(w, r, run)
		return
	}
	writeJSON(w, http.StatusOK, submitResponse{
		ID: run.id, Total: len(cells), Cached: len(hits), Hashes: run.hashes,
	})
}

// accepts reports whether r's Accept header names the media type mt.
func accepts(r *http.Request, mt string) bool {
	for _, v := range r.Header.Values("Accept") {
		for _, part := range strings.Split(v, ",") {
			t, _, _ := strings.Cut(part, ";")
			if strings.TrimSpace(t) == mt {
				return true
			}
		}
	}
	return false
}

// evictLocked drops the oldest finished sweeps so that, counting the
// one about to be submitted, at most retainedSweeps finished sweeps
// stay. A stream already serving an evicted sweep holds its run and
// completes; later lookups of the id answer 404.
//
//smt:locked(mu)
func (s *Server) evictLocked() {
	excess := 1 - retainedSweeps
	for _, run := range s.order {
		if run.finished() {
			excess++
		}
	}
	kept := s.order[:0]
	for _, run := range s.order {
		if excess > 0 && run.finished() {
			delete(s.sweeps, run.id)
			excess--
			continue
		}
		kept = append(kept, run)
	}
	clear(s.order[len(kept):])
	s.order = kept
}

// cellLine is one streamed or collected cell outcome. Done and Total
// are set only on the stream's terminal message.
type cellLine struct {
	Index  int            `json:"index"`
	Hash   string         `json:"hash"`
	Result *smtsim.Result `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
	Done   bool           `json:"done,omitempty"`
	Total  int            `json:"total,omitempty"`
}

func lineFor(idx int, hash string, o *outcome) cellLine {
	l := cellLine{Index: idx, Hash: hash}
	if o.Err != "" {
		l.Error = o.Err
	} else {
		l.Result = &o.Result // a landed outcome is never written again
	}
	return l
}

type sweepStatus struct {
	ID       string     `json:"id"`
	Total    int        `json:"total"`
	Done     int        `json:"done"`
	Complete bool       `json:"complete"`
	Cells    []cellLine `json:"cells"`
}

func (s *Server) lookupSweep(id string) *sweepRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	run := s.lookupSweep(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	run.mu.Lock()
	st := sweepStatus{
		ID:       run.id,
		Total:    len(run.hashes),
		Done:     len(run.landed),
		Complete: run.remaining == 0,
	}
	for i, o := range run.outcomes {
		if o != nil {
			st.Cells = append(st.Cells, lineFor(i, run.hashes[i], o))
		}
	}
	run.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleStream writes the sweep's result stream (see writeStream).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	run := s.lookupSweep(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	writeStream(w, r, run)
}

// writeStream writes one frame per cell in completion order as cells
// land, then a done frame. Partial aggregation is the point — a figure
// renderer can draw cells as they arrive.
func writeStream(w http.ResponseWriter, r *http.Request, run *sweepRun) {
	w.Header().Set("Content-Type", frameType)
	flusher, _ := w.(http.Flusher)
	var buf []byte
	sent := 0
	for {
		run.mu.Lock()
		buf = slices.Grow(buf, frameBytesHint*(len(run.landed)-sent+1))
		for _, idx := range run.landed[sent:] {
			buf = appendFrame(buf, lineFor(idx, run.hashes[idx], run.outcomes[idx]))
		}
		sent = len(run.landed)
		complete := run.remaining == 0
		landed := run.landedCh
		run.mu.Unlock()
		if complete {
			// Every cell had landed at the snapshot, so all are sent.
			buf = appendFrame(buf, cellLine{Done: true, Total: len(run.hashes)})
		}
		if _, err := w.Write(buf); err != nil {
			return
		}
		buf = buf[:0]
		if flusher != nil {
			flusher.Flush()
		}
		if complete {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-landed:
		}
	}
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	res, ok, err := s.store.Get(hash)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if ok {
		writeJSON(w, http.StatusOK, cellLine{Hash: hash, Result: &res})
		return
	}
	s.mu.Lock()
	f, inflight := s.flights[hash]
	pending := inflight && !f.done
	s.mu.Unlock()
	if pending {
		writeJSON(w, http.StatusAccepted, map[string]string{"hash": hash, "status": "inflight"})
		return
	}
	httpError(w, http.StatusNotFound, "unknown cell %s", hash)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// StatsSnapshot returns the live counters (also the /v1/stats payload).
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.Store = s.store.StatsSnapshot()
	return st
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
