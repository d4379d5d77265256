package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that sets it up,
// loads it for the configured seconds and checks its outputs.
var workloads = map[string]func(*bench) error{
	"sweep-local":    func(b *bench) error { return runSweeps(b, false) },
	"sweep-cluster":  func(b *bench) error { return runSweeps(b, true) },
	"serve-cached":   runServeCached,
	"fixation-giant": runFixation,
}

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json
// order. Every workload reports each of them; README.md maps them to
// the named metrics of each workload (sweep_p50_ms, read_p50_ms, ...).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput", "1/s"},
	{"peak_rss_mib", "MiB"},
}

type metric struct {
	name, unit string
	value      float64
}

// result is what one run reports.
type result struct {
	attempted, failed int64
	failures          []string
	metrics           []metric
	report            []string
	// counts are the exact counts of a traced run: the same seed and
	// --seconds must reproduce them bit for bit.
	counts map[string]int64
	// digests are the SHA-256 digests of the sweep artifacts in
	// submission order (sweep workloads only).
	digests []string
}

func (r *result) correct() bool { return r.attempted > 0 && r.failed == 0 }

// bench is the state of one run shared by the workload code.
type bench struct {
	cfg config
	tr  *tracer // nil in untraced runs
	dir string  // the run's private work directory

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string

	// Filled by the workload.
	setup    []time.Duration // one entry per repeated set-up
	lat      []time.Duration // latencies of the workload's unit operation
	work     float64         // units of work done in the load phase
	workWall time.Duration   // wall time the work took
	opName   string          // what one latency sample is
	workName string          // what one unit of work is
	// names are the workload's own names for p50_ms, tail_ms and
	// throughput, as the report prints them.
	names      [3]string
	report     []string
	digests    []string
	traceExtra []metric // per-layer metrics only the workload can compute
}

// maxFailureLines bounds how many failure messages a run prints.
const maxFailureLines = 20

// check counts one attempted operation and, when err is non-nil, one
// failure. It reports whether the operation succeeded.
func (b *bench) check(err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if len(b.failures) < maxFailureLines {
		b.failures = append(b.failures, err.Error())
	}
	return false
}

func (b *bench) addLatency(d time.Duration) {
	b.mu.Lock()
	b.lat = append(b.lat, d)
	b.mu.Unlock()
}

func (b *bench) reportf(format string, args ...any) {
	b.report = append(b.report, fmt.Sprintf(format, args...))
}

// deadline is the end of the load phase that starts now.
func (b *bench) deadline() time.Time {
	return time.Now().Add(time.Duration(b.cfg.seconds) * time.Second)
}

// timeSetup runs a workload's set-up reps times and records each
// duration, so that setup_s is a median. Every set-up but the last is
// torn down again; the last one's system is returned for the load.
func timeSetup[T any](b *bench, reps int, up func(rep int) (T, error), down func(T)) (T, error) {
	var sys T
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		s, err := up(rep)
		if err != nil {
			return sys, fmt.Errorf("set-up: %w", err)
		}
		b.setup = append(b.setup, time.Since(start))
		if rep < reps-1 {
			down(s)
		}
		sys = s
	}
	return sys, nil
}

func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, dir: dir}
	if cfg.trace {
		b.tr = newTracer()
	}
	if err := workloads[cfg.workload](b); err != nil {
		return nil, err
	}
	if len(b.lat) == 0 || b.workWall <= 0 {
		return nil, fmt.Errorf("the load phase completed no %s", b.opName)
	}

	res := &result{report: b.report, digests: b.digests}
	setupS := median(b.setup).Seconds()
	p50 := ms(median(b.lat))
	tailV, tailPct, blocks := runTail(b.lat)
	thr := b.work / b.workWall.Seconds()
	rss := peakRSSMiB()
	res.report = append(res.report,
		fmt.Sprintf("workload %s seed %d trace %v: %d %s, set-up median of %d = %.4f s",
			cfg.workload, cfg.seed, cfg.trace, len(b.lat), b.opName, len(b.setup), setupS),
		fmt.Sprintf("  %s = %.3f, %s = %.3f (p%.2f of %d samples), %s = %.3f (%s per s), peak_rss_mib = %.1f",
			b.names[0], p50, b.names[1], ms(tailV), tailPct, len(b.lat), b.names[2], thr, b.workName, rss))
	if blocks > 1 {
		res.report = append(res.report, fmt.Sprintf("  the tail is the median over %d blocks of %d samples of each block's p%.2f", blocks, tailBlock, tailPct))
	}

	if b.tr == nil {
		vals := map[string]float64{
			"setup_s": setupS, "p50_ms": p50, "tail_ms": ms(tailV),
			"throughput": thr, "peak_rss_mib": rss,
		}
		for _, m := range endToEnd {
			res.metrics = append(res.metrics, metric{m.name, m.unit, vals[m.name]})
		}
	} else {
		if err := b.tr.writeSpans(cfg.spans); err != nil {
			return nil, err
		}
		res.report = append(res.report, "  spans written to "+cfg.spans)
		// The traced run's own end-to-end figures: their difference from
		// the untraced run at the same seed is the tracing overhead.
		b.traceExtra = append(b.traceExtra,
			metric{"traced.setup_s", "s", setupS},
			metric{"traced.p50_ms", "ms", p50},
			metric{"traced.tail_ms", "ms", ms(tailV)},
			metric{"traced.tail_pct", "%", tailPct},
			metric{"traced.samples", "count", float64(len(b.lat))},
			metric{"traced.throughput", "1/s", thr},
			metric{"traced.peak_rss_mib", "MiB", rss},
		)
		res.metrics, res.counts = b.tr.metrics(b)
	}
	b.mu.Lock()
	res.attempted, res.failed, res.failures = b.attempted, b.failed, b.failures
	b.mu.Unlock()
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median returns the middle sample, the mean of the two middle ones
// for an even count.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := sorted(ds)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that has at least ten samples
// above it, and which percentile that is. Runs with fewer than eleven
// samples have no such percentile; they report their maximum as p100.
func tail(ds []time.Duration) (time.Duration, float64) {
	s := sorted(ds)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n < 11 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

// tailBlock is the block size of runTail.
const tailBlock = 1000

// runTail is the tail of a run's latencies. A run of fewer than two
// blocks of tailBlock samples reports its tail. A longer run cuts its
// samples, in completion order, into blocks and reports the median of
// the blocks' tails (p99 at ten samples beyond): over tens of
// thousands of requests the tail of the whole run is the tenth-worst
// request, which one stall of the machine decides, while the block
// median moves only when the latency distribution does. It also
// returns the percentile and the number of blocks.
func runTail(ds []time.Duration) (time.Duration, float64, int) {
	if len(ds) < 2*tailBlock {
		v, pct := tail(ds)
		return v, pct, 1
	}
	var tails []time.Duration
	var pct float64
	for i := 0; i+tailBlock <= len(ds); i += tailBlock {
		var v time.Duration
		v, pct = tail(ds[i : i+tailBlock])
		tails = append(tails, v)
	}
	return median(tails), pct, len(tails)
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// splitmix64 derives the run's inputs from the workload seed: stream
// separates the kinds of input, i indexes within one kind.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Input streams of deriveSeed.
const (
	streamSweep = iota + 1
	streamFixture
	streamTrajectory
	streamWarmup
	streamPick
)

func deriveSeed(root uint64, stream, i int) uint64 {
	return splitmix64(splitmix64(root^uint64(stream)<<56) + uint64(i))
}
