package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smtsim"
	"smtsim/internal/cellstore"
)

// TestStatusDuringSubmitNoRace targets the sweep-publication hazard
// the guardedby annotation pass surfaced: handleSubmit used to
// register the run in Server.sweeps and only then fill run.hashes, so
// status and stream handlers on other goroutines read a slice the
// submitter was still writing. No lock ordered those writes with the
// readers — the old code was safe only through the incidental
// happens-before chain of each cell's own enqueue, an invariant one
// refactor away from a real race. handleSubmit now hashes every cell
// before the run is published and never writes it after; this test
// hammers GET /v1/sweeps/{id} for the id the POST is about to create
// for the whole duration of the submit, so any future post-publication
// write shows up under -race.
func TestStatusDuringSubmitNoRace(t *testing.T) {
	_, client, _ := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 2
	})

	specs := testSpecs(64)
	body, err := json.Marshal(submitRequest{Cells: specs})
	if err != nil {
		t.Fatal(err)
	}

	var submitted atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(client.url("/v1/sweep"), "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		submitted.Store(true)
	}()

	// The first sweep this server sees is deterministically "s1". Poll
	// its status (404 until the run is published, then partial states)
	// for as long as the submit is in flight.
	for !submitted.Load() {
		resp, err := http.Get(client.url("/v1/sweeps/s1"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var st sweepStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			if st.Total != len(specs) {
				t.Fatalf("status total = %d, want %d", st.Total, len(specs))
			}
		}
		resp.Body.Close()
	}
	wg.Wait()

	// Drain the sweep so shutdown is clean and the stream path (which
	// reads hashes too) runs at least once end to end.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(client.url("/v1/sweeps/s1"))
		if err != nil {
			t.Fatal(err)
		}
		var st sweepStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Complete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep not complete: %d/%d", st.Done, st.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDuplicateSubmitChurnNoRace drives the flight state machine hard
// under -race: duplicate sweeps attach waiters to in-flight cells
// while a transiently failing simulator forces finish to delete and
// resubmission to recreate flights — the done/waiters/out handoffs the
// //smt:guarded-by(Server.mu) annotations now police. The worker's
// process() used to read flight state outside the lock (guardedby
// flags exactly that line if the fix regresses); this churn keeps the
// runtime detector pointed at the same handoffs.
func TestDuplicateSubmitChurnNoRace(t *testing.T) {
	var calls atomic.Int64
	_, client, _ := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 4
		sim := cfg.Simulate
		cfg.Simulate = func(s cellstore.Spec) (smtsim.Result, error) {
			// Every third simulation fails, so flights churn through the
			// delete-and-retry path while duplicates are attaching.
			if calls.Add(1)%3 == 0 {
				return smtsim.Result{}, fmt.Errorf("transient")
			}
			return sim(s)
		}
	})

	specs := testSpecs(8)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Retry until every cell lands: transient failures surface as
			// RunCells errors and the next submission re-enqueues.
			for attempt := 0; attempt < 50; attempt++ {
				if _, err := client.RunCells(specs); err == nil {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			t.Error("cells never all landed despite retries")
		}()
	}
	wg.Wait()
}
