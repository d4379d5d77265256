package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridseg"
	"gridseg/internal/fabric"
)

// span is one timed call at a layer boundary. Spans of one operation
// (a sweep, a request of the read mix, a trajectory) share a trace id;
// Parent is the id of the span that caused it, 0 for an operation.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans and counts of a traced run in memory; they
// are written out when the run ends. Recording starts with start(),
// after the set-up, so only the load phase is traced.
type tracer struct {
	t0        time.Time
	recording atomic.Bool
	// current is the trace id of the operation in flight, for layers
	// that see no request (store calls, fabric round trips). The sweep
	// workloads run one operation at a time, so the attribution is
	// exact there; serve-cached runs two clients and labels them "mix".
	current atomic.Value

	mu      sync.Mutex
	nextID  int64
	spans   []span
	roots   map[string]int64
	busy    map[string]time.Duration
	calls   map[string]int64
	samples map[string][]time.Duration
	counts  map[string]int64
}

func newTracer() *tracer {
	t := &tracer{
		t0:      time.Now(),
		roots:   map[string]int64{},
		busy:    map[string]time.Duration{},
		calls:   map[string]int64{},
		samples: map[string][]time.Duration{},
		counts:  map[string]int64{},
	}
	t.current.Store("")
	return t
}

func (t *tracer) start() { t.recording.Store(true) }

// open reserves the root span of an operation and, when current is
// set, makes it the operation in flight.
func (t *tracer) open(trace string, current bool) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.roots[trace] = t.nextID
	if current {
		t.current.Store(trace)
	}
	return t.nextID
}

// newID reserves a span id, for a span whose children end before it.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record adds a span. id 0 allocates one; parent -1 means the root of
// the trace. The span's duration adds to the busy time of its name.
func (t *tracer) record(id, parent int64, trace, name string, start, end time.Time) {
	if !t.recording.Load() {
		return
	}
	d := end.Sub(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	if parent < 0 {
		parent = t.roots[trace]
	}
	t.spans = append(t.spans, span{id, parent, trace, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.busy[name] += d
	t.calls[name]++
	t.samples[name] = append(t.samples[name], d)
}

// count adds n to an exact count.
func (t *tracer) count(name string, n int64) {
	if !t.recording.Load() {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) cur() string { return t.current.Load().(string) }

func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// middleware times the public grid routes of the server's handler.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		if route == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(0, -1, r.Header.Get(traceHeader), "server."+route, start, time.Now())
	})
}

// routeOf names the public grid routes the benchmark times; fabric and
// object requests are timed on the worker side instead.
func routeOf(r *http.Request) string {
	p := strings.Trim(r.URL.Path, "/")
	parts := strings.Split(p, "/")
	if parts[0] != "grids" {
		return ""
	}
	switch {
	case r.Method == http.MethodPost && len(parts) == 1:
		return "submit"
	case r.Method == http.MethodGet && len(parts) == 2:
		return "status"
	case r.Method == http.MethodGet && len(parts) == 3:
		switch parts[2] {
		case "events":
			return "events"
		case "artifact.csv":
			return "artifact_csv"
		case "artifact.json":
			return "artifact_json"
		}
	}
	return ""
}

// tracedStore decorates the server's result store.
type tracedStore struct {
	t    *tracer
	next gridseg.CellStore
}

func (t *tracer) store(next gridseg.CellStore) gridseg.CellStore { return tracedStore{t, next} }

func (s tracedStore) Get(key string) ([]float64, bool, error) {
	start := time.Now()
	v, ok, err := s.next.Get(key)
	s.t.record(0, -1, s.t.cur(), "store.get", start, time.Now())
	if ok {
		s.t.count("store.get.hits", 1)
	}
	if err != nil {
		s.t.count("store.errors", 1)
	}
	return v, ok, err
}

func (s tracedStore) Put(key string, values []float64) error {
	start := time.Now()
	err := s.next.Put(key, values)
	s.t.record(0, -1, s.t.cur(), "store.put", start, time.Now())
	if err != nil {
		s.t.count("store.errors", 1)
	}
	return err
}

// tracedTransport times one fabric worker's round trips: leases,
// heartbeats and completions to the coordinator, and object GET/PUT
// through its Remote store. A lease answered 204 (no work) starts an
// idle span that lasts until the worker's next request.
type tracedTransport struct {
	t    *tracer
	next http.RoundTripper

	mu        sync.Mutex
	idleSince time.Time
}

func (t *tracer) transport() http.RoundTripper {
	return &tracedTransport{t: t, next: http.DefaultTransport}
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	tt.mu.Lock()
	if !tt.idleSince.IsZero() {
		tt.t.record(0, -1, tt.t.cur(), "fabric.worker.idle", tt.idleSince, start)
		tt.idleSince = time.Time{}
	}
	tt.mu.Unlock()
	kind := "objects"
	if strings.Contains(req.URL.Path, "/fabric/") {
		kind = req.URL.Path[strings.LastIndex(req.URL.Path, "/")+1:]
	}
	resp, err := tt.next.RoundTrip(req)
	end := time.Now()
	tt.t.record(0, -1, tt.t.cur(), "fabric."+kind, start, end)
	if err != nil {
		tt.t.count("fabric.errors", 1)
		return resp, err
	}
	if kind == "lease" {
		switch resp.StatusCode {
		case http.StatusOK:
			tt.t.count("fabric.lease.grants", 1)
		case http.StatusNoContent:
			tt.mu.Lock()
			tt.idleSince = end
			tt.mu.Unlock()
		}
	}
	return resp, nil
}

// runner wraps a fabric worker's Runner.
func (t *tracer) runner(next func(fabric.Job) ([]float64, error)) func(fabric.Job) ([]float64, error) {
	return func(j fabric.Job) ([]float64, error) {
		start := time.Now()
		v, err := next(j)
		t.record(0, -1, t.cur(), "fabric.cell", start, time.Now())
		return v, err
	}
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"build.busy_ms", "ms"},
	{"build.calls", "count"},
	{"dynamics.busy_ms", "ms"},
	{"dynamics.flips", "count"},
	{"dynamics.ns_per_flip", "ns"},
	{"measure.stats_ms", "ms"},
	{"measure.mono_ms", "ms"},
	{"store.get.calls", "count"},
	{"store.get.busy_ms", "ms"},
	{"store.get.hit_ratio", "ratio"},
	{"store.put.calls", "count"},
	{"store.put.busy_ms", "ms"},
	{"store.errors", "count"},
	{"fabric.lease.calls", "count"},
	{"fabric.lease.rtt_p50_ms", "ms"},
	{"fabric.lease.grant_ratio", "ratio"},
	{"fabric.heartbeat.calls", "count"},
	{"fabric.complete.rtt_p50_ms", "ms"},
	{"fabric.objects.rtt_p50_ms", "ms"},
	{"fabric.cell.busy_ms", "ms"},
	{"fabric.worker.idle_ms", "ms"},
	{"fabric.blocking_ms_per_sweep", "ms"},
	{"fabric.errors", "count"},
	{"server.submit.busy_ms", "ms"},
	{"server.events.busy_ms", "ms"},
	{"server.artifact_csv.busy_ms", "ms"},
	{"server.artifact_json.busy_ms", "ms"},
	{"server.status.busy_ms", "ms"},
	{"server.first_cell_ms", "ms"},
	{"cells.computed", "count"},
	{"cells.cached", "count"},
	{"replay.cell_busy_ms", "ms"},
	{"replay.runner_ratio", "ratio"},
	{"error_frac", "ratio"},
	{"traced.setup_s", "s"},
	{"traced.p50_ms", "ms"},
	{"traced.tail_ms", "ms"},
	{"traced.tail_pct", "%"},
	{"traced.samples", "count"},
	{"traced.throughput", "1/s"},
	{"traced.peak_rss_mib", "MiB"},
	{"traced.cached_sweep_p50_ms", "ms"},
}

// exactCounts are the per-layer metrics that two traced runs at the
// same seed and --seconds must reproduce exactly.
var exactCounts = []string{
	"build.calls", "dynamics.flips", "cells.computed", "cells.cached",
	"store.put.calls", "store.get.calls",
}

// metrics turns the recorded spans and counts into the per-layer
// metrics, and returns the exact counts separately.
func (t *tracer) metrics(b *bench) ([]metric, map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	busy := func(name string) float64 { return ms(t.busy[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	vals := map[string]float64{
		"build.busy_ms":                busy("build"),
		"build.calls":                  float64(t.calls["build"]),
		"dynamics.busy_ms":             busy("dynamics"),
		"dynamics.flips":               float64(t.counts["dynamics.flips"]),
		"dynamics.ns_per_flip":         ratio(float64(t.busy["dynamics"]), float64(t.counts["dynamics.flips"])),
		"measure.stats_ms":             busy("measure.stats"),
		"measure.mono_ms":              busy("measure.mono"),
		"store.get.calls":              float64(t.calls["store.get"]),
		"store.get.busy_ms":            busy("store.get"),
		"store.get.hit_ratio":          ratio(float64(t.counts["store.get.hits"]), float64(t.calls["store.get"])),
		"store.put.calls":              float64(t.calls["store.put"]),
		"store.put.busy_ms":            busy("store.put"),
		"store.errors":                 float64(t.counts["store.errors"]),
		"fabric.lease.calls":           float64(t.calls["fabric.lease"]),
		"fabric.lease.rtt_p50_ms":      ms(median(t.samples["fabric.lease"])),
		"fabric.lease.grant_ratio":     ratio(float64(t.counts["fabric.lease.grants"]), float64(t.calls["fabric.lease"])),
		"fabric.heartbeat.calls":       float64(t.calls["fabric.heartbeat"]),
		"fabric.complete.rtt_p50_ms":   ms(median(t.samples["fabric.complete"])),
		"fabric.objects.rtt_p50_ms":    ms(median(t.samples["fabric.objects"])),
		"fabric.cell.busy_ms":          busy("fabric.cell"),
		"fabric.errors":                float64(t.counts["fabric.errors"]),
		"server.submit.busy_ms":        busy("server.submit"),
		"server.events.busy_ms":        busy("server.events"),
		"server.artifact_csv.busy_ms":  busy("server.artifact_csv"),
		"server.artifact_json.busy_ms": busy("server.artifact_json"),
		"server.status.busy_ms":        busy("server.status"),
		"server.first_cell_ms":         ms(median(t.samples["first_cell"])),
		"cells.computed":               float64(t.counts["cells.computed"]),
		"cells.cached":                 float64(t.counts["cells.cached"]),
		"replay.cell_busy_ms":          busy("replay.cell"),
		"error_frac":                   ratio(float64(b.failed), float64(b.attempted)),
	}
	// Idle time counts only while a sweep is in flight: an idle worker
	// then delays the sweep, while idling between sweeps costs nothing.
	idle := overlap(t.spans, "fabric.worker.idle", "sweep")
	vals["fabric.worker.idle_ms"] = ms(idle)
	if sweeps := t.calls["sweep"]; sweeps > 0 {
		blocking := t.busy["fabric.lease"] + t.busy["fabric.objects"] + t.busy["fabric.complete"] + idle
		vals["fabric.blocking_ms_per_sweep"] = ms(blocking) / float64(fabricWorkers*sweeps)
	}
	vals["replay.runner_ratio"] = ratio(busy("replay.cell"), busy("fabric.cell"))
	for _, m := range b.traceExtra {
		vals[m.name] = m.value
	}
	var out []metric
	for _, m := range perLayer {
		out = append(out, metric{m.name, m.unit, vals[m.name]})
	}
	counts := map[string]int64{}
	for _, name := range exactCounts {
		counts[name] = int64(vals[name])
	}
	return out, counts
}

// overlap sums, over the spans named inner, the time they overlap any
// span named outer.
func overlap(spans []span, inner, outer string) time.Duration {
	var outs [][2]int64
	for _, s := range spans {
		if s.Name == outer {
			outs = append(outs, [2]int64{s.Start, s.End})
		}
	}
	var total int64
	for _, s := range spans {
		if s.Name != inner {
			continue
		}
		for _, o := range outs {
			lo, hi := max(s.Start, o[0]), min(s.End, o[1])
			if hi > lo {
				total += hi - lo
			}
		}
	}
	return time.Duration(total)
}
