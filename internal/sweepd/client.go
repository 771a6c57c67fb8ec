package sweepd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"smtsim"
	"smtsim/internal/cellstore"
)

// Client talks to a sweepd server. Its RunCells method satisfies
// sweep.CellRunner, which is all `smtsweep -server` and
// `smtreport -server` need: the figure code is unchanged, the cells
// just resolve remotely (and mostly from cache).
type Client struct {
	// Base is the server URL, e.g. "http://localhost:8344".
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// Progress, when non-nil, receives a line per landed cell.
	Progress func(string)
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// RunCells submits the cells as one sweep and reads its result stream
// from the same exchange until every cell has landed, returning results
// in spec order.
func (c *Client) RunCells(specs []cellstore.Spec) ([]smtsim.Result, error) {
	body := appendSpecs(make([]byte, 0, specBytesHint*len(specs)), specs)
	req, err := http.NewRequest(http.MethodPost, c.url("/v1/sweep"), bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("sweepd client: %w", err)
	}
	req.Header.Set("Content-Type", specType)
	req.Header.Set("Accept", frameType)
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("sweepd client: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		err := decodeJSON(resp, nil)
		if resp.StatusCode == http.StatusBadRequest && strings.Contains(err.Error(), errDecodingRequest) {
			// This client never sends a body its own server cannot
			// decode: the server reads another request format.
			err = fmt.Errorf("%w: the server speaks another version of the sweepd protocol", err)
		}
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != frameType {
		return nil, fmt.Errorf("sweepd client: stream Content-Type %q, want %q: the server speaks another version of the sweepd protocol", ct, frameType)
	}

	results := make([]smtsim.Result, len(specs))
	seen := make([]bool, len(specs))
	landed := 0
	done := false
	// A frame for a cell out of range or already landed decodes into
	// spare, to be checked and dropped.
	var spare *smtsim.Result
	into := func(idx int) (*smtsim.Result, []string) {
		if idx >= len(specs) || seen[idx] {
			if spare == nil {
				spare = new(smtsim.Result)
			}
			return spare, nil
		}
		return &results[idx], specs[idx].Benchmarks
	}
	// The bound allows 1 MiB per cell plus the terminal frame.
	r := bufio.NewReader(io.LimitReader(resp.Body, int64(len(specs)+1)<<20))
	var buf []byte
	for !done {
		h, b, err := readFrame(r, buf, into)
		buf = b
		if errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("sweepd client: reading stream: %w", err)
		}
		if h.kind == frameDone {
			done = true
			continue
		}
		if h.index >= len(specs) {
			return nil, fmt.Errorf("sweepd client: stream index %d out of range", h.index)
		}
		if h.kind == frameError {
			return nil, fmt.Errorf("sweepd client: cell %d: %s", h.index, h.err)
		}
		if !seen[h.index] {
			seen[h.index] = true
			landed++
			if c.Progress != nil {
				hash := h.hash // a copy, so that h stays off the heap
				c.Progress(fmt.Sprintf("cell %d/%d (%x): IPC=%.3f", landed, len(specs), hash[:4], results[h.index].IPC))
			}
		}
	}
	if !done || landed != len(specs) {
		return nil, fmt.Errorf("sweepd client: stream ended with %d/%d cells (done=%v)", landed, len(specs), done)
	}
	// Read to the end of the body, or the transport cannot reuse the
	// connection for the next batch.
	if n, err := io.Copy(io.Discard, r); err != nil || n > 0 {
		return nil, fmt.Errorf("sweepd client: %d bytes after the terminal frame (%v)", n, err)
	}
	return results, nil
}

// Stats fetches the server's counters.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.client().Get(c.url("/v1/stats"))
	if err != nil {
		return Stats{}, fmt.Errorf("sweepd client: %w", err)
	}
	var st Stats
	if err := decodeJSON(resp, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// decodeJSON consumes a response, surfacing the server's error payload
// on non-2xx statuses.
func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		if e.Error != "" {
			return fmt.Errorf("sweepd client: %s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("sweepd client: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("sweepd client: decoding response: %w", err)
	}
	return nil
}
