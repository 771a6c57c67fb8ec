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
	body, err := json.Marshal(submitRequest{Cells: specs})
	if err != nil {
		return nil, fmt.Errorf("sweepd client: %w", err)
	}
	req, err := http.NewRequest(http.MethodPost, c.url("/v1/sweep"), bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("sweepd client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", frameType)
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("sweepd client: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, decodeJSON(resp, nil)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != frameType {
		return nil, fmt.Errorf("sweepd client: stream Content-Type %q, want %q: the server speaks another version of the sweepd protocol", ct, frameType)
	}

	results := make([]smtsim.Result, len(specs))
	seen := make([]bool, len(specs))
	landed := 0
	done := false
	// The bound allows 1 MiB per cell plus the terminal frame.
	r := bufio.NewReader(io.LimitReader(resp.Body, int64(len(specs)+1)<<20))
	var buf []byte
	for !done {
		line, b, err := readFrame(r, buf)
		buf = b
		if errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("sweepd client: reading stream: %w", err)
		}
		if line.Done {
			done = true
			continue
		}
		if line.Index < 0 || line.Index >= len(specs) {
			return nil, fmt.Errorf("sweepd client: stream index %d out of range", line.Index)
		}
		if line.Error != "" {
			return nil, fmt.Errorf("sweepd client: cell %d: %s", line.Index, line.Error)
		}
		if line.Result == nil {
			return nil, fmt.Errorf("sweepd client: cell %d landed without a result", line.Index)
		}
		if !seen[line.Index] {
			seen[line.Index] = true
			landed++
			results[line.Index] = *line.Result
			if c.Progress != nil {
				c.Progress(fmt.Sprintf("cell %d/%d (%.8s): IPC=%.3f", landed, len(specs), line.Hash, line.Result.IPC))
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
