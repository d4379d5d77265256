package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// traceHeader carries the benchmark's trace id of a request, so the
// server middleware can attach its span to the operation that sent it.
const traceHeader = "X-E2ebench-Trace"

// client is the benchmark's side of the public grid API.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path, trace string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if trace != "" {
		req.Header.Set(traceHeader, trace)
	}
	return c.hc.Do(req)
}

// get fetches path and fails on any status but 200.
func (c *client) get(path, trace string) ([]byte, error) {
	resp, err := c.do(http.MethodGet, path, trace, nil)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// healthy waits until the server answers /healthz.
func (c *client) healthy() error {
	var err error
	for i := 0; i < 100; i++ {
		if _, err = c.get("/healthz", ""); err == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// registered waits until the coordinator's lease table holds run id,
// so that a worker started next leases work at once instead of finding
// none and entering its idle poll.
func (c *client) registered(id string) error {
	for i := 0; i < 1000; i++ {
		body, err := c.get("/fabric/status", "")
		if err != nil {
			return err
		}
		var st struct {
			Runs []struct {
				Run string `json:"run"`
			} `json:"runs"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("GET /fabric/status: %w", err)
		}
		for _, r := range st.Runs {
			if r.Run == id {
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("run %s never reached the coordinator's lease table", id)
}

// gridStatus is the part of a run's status the benchmark checks.
type gridStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Cells int    `json:"cells"`
	Cache struct {
		Hits   int `json:"hits"`
		Misses int `json:"misses"`
	} `json:"cache"`
}

// submit POSTs a grid and returns the HTTP status and the run status.
func (c *client) submit(spec string, seed uint64, trace string) (int, gridStatus, error) {
	var st gridStatus
	body, _ := json.Marshal(map[string]any{"spec": spec, "seed": seed})
	resp, err := c.do(http.MethodPost, "/grids", trace, bytes.NewReader(body))
	if err != nil {
		return 0, st, fmt.Errorf("POST /grids: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, st, fmt.Errorf("POST /grids: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, st, fmt.Errorf("POST /grids: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return resp.StatusCode, st, fmt.Errorf("POST /grids: %w", err)
	}
	return resp.StatusCode, st, nil
}

// events is what one SSE stream of a run carried.
type events struct {
	cells       int // "cell" events
	hits        int // from the terminal done event
	misses      int
	doneCells   int
	firstCellAt time.Time
}

// follow reads /grids/{id}/events to the terminal event. A stream that
// ends without "done" is an error.
func (c *client) follow(id, trace string) (events, error) {
	var ev events
	path := "/grids/" + id + "/events"
	resp, err := c.do(http.MethodGet, path, trace, nil)
	if err != nil {
		return ev, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ev, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	var name string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return ev, fmt.Errorf("GET %s: stream ended without done (%v)", path, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch name {
			case "cell":
				if ev.cells == 0 {
					ev.firstCellAt = time.Now()
				}
				ev.cells++
			case "done":
				var d struct {
					Cells int `json:"cells"`
					Cache struct {
						Hits   int `json:"hits"`
						Misses int `json:"misses"`
					} `json:"cache"`
				}
				if err := json.Unmarshal([]byte(data), &d); err != nil {
					return ev, fmt.Errorf("GET %s: done event: %w", path, err)
				}
				ev.doneCells, ev.hits, ev.misses = d.Cells, d.Cache.Hits, d.Cache.Misses
				return ev, nil
			case "error":
				return ev, fmt.Errorf("GET %s: run failed: %s", path, data)
			}
		}
	}
}

// sweepResult is one submitted sweep, followed to its artifact.
type sweepResult struct {
	status  int // of the POST: 202 for a new run, 200 for an attach
	id      string
	ev      events
	csv     []byte
	latency time.Duration // POST until the artifact body is received
	// firstCell is the time from the POST to the first "cell" event.
	firstCell time.Duration
}

// sweep is the unit operation of the sweep workloads and the cached
// submissions of serve-cached: POST /grids, follow /events to done,
// GET artifact.csv.
func (c *client) sweep(spec string, seed uint64, trace string) (sweepResult, error) {
	var r sweepResult
	start := time.Now()
	status, st, err := c.submit(spec, seed, trace)
	r.status, r.id = status, st.ID
	if err != nil {
		return r, err
	}
	if r.ev, err = c.follow(st.ID, trace); err != nil {
		return r, err
	}
	if r.csv, err = c.get("/grids/"+st.ID+"/artifact.csv", trace); err != nil {
		return r, err
	}
	r.latency = time.Since(start)
	if !r.ev.firstCellAt.IsZero() {
		r.firstCell = r.ev.firstCellAt.Sub(start)
	}
	return r, nil
}

// checkArtifact checks that a sweep artifact has one row per cell and
// that every cell reached fixation.
func checkArtifact(csv []byte, cells int) error {
	lines := strings.Split(strings.TrimSuffix(string(csv), "\n"), "\n")
	if len(lines)-1 != cells {
		return fmt.Errorf("artifact has %d rows, want %d", len(lines)-1, cells)
	}
	header := strings.Split(lines[0], ",")
	col := -1
	for i, h := range header {
		if h == "fixated" {
			col = i
		}
	}
	if col < 0 {
		return fmt.Errorf("artifact has no fixated column")
	}
	for i, l := range lines[1:] {
		f := strings.Split(l, ",")
		if len(f) != len(header) || f[col] != "1" {
			return fmt.Errorf("artifact row %d is not a fixated cell: %s", i, l)
		}
	}
	return nil
}
