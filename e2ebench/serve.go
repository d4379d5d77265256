package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gridseg"
)

// fixtureSpec is the grid of serve-cached's pre-filled runs: the n=32
// half of sweepSpec, so that filling the store stays a small part of
// the set-up.
const fixtureSpec = "n=32 w=1:3 tau=0.36:0.48:0.04 reps=4"

const (
	// fixtures is the number of (spec, seed) runs whose cells set-up
	// puts in the store. Cached submissions cycle through them.
	fixtures = 16
	// registryRuns is the server's registry bound. With fewer runs kept
	// than fixtures, each fixture has been evicted by the time the cycle
	// returns to it, so every cached submission is a new run whose cells
	// are all in the store.
	registryRuns = 8
	// warmFixtures are submitted during set-up, so the read requests
	// have finished runs to read from the start.
	warmFixtures = 4
	// readWindow is how many of the most recently finished runs a read
	// picks from. It is well below registryRuns, so a run cannot be
	// evicted while a read of it is in flight.
	readWindow = 4
	// readClients is the number of closed-loop clients: one per CPU.
	readClients = 2
	// serveSetupReps is how often serve-cached repeats its set-up; each
	// fills a store, so it repeats fewer times than the others.
	serveSetupReps = 5
)

// mixKinds is the fixed request mix each client cycles through.
var mixKinds = []string{"cached_sweep", "artifact_csv", "artifact_json", "status", "sse_replay"}

// tracedRounds is the number of mix rounds per client in a traced run.
func tracedRounds(seconds int) int { return 100 * seconds }

type fixture struct {
	seed      uint64
	id        string
	csv, json []byte
}

// serveState is what the two clients of serve-cached share.
type serveState struct {
	fix  []fixture
	next atomic.Int64 // fixture counter of the next cached submission

	mu       sync.Mutex
	finished []int // fixture indices of the most recent finished runs
	byKind   map[string][]time.Duration
}

func (st *serveState) finish(k int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.finished = append(st.finished, k)
	if len(st.finished) > readWindow {
		st.finished = st.finished[len(st.finished)-readWindow:]
	}
}

func (st *serveState) pick(r *rand.Rand) fixture {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fix[st.finished[r.IntN(len(st.finished))]]
}

// runServeCached is serve-cached: a fresh segd over a pre-filled store,
// loaded by two closed-loop clients with a fixed mix of cached
// submissions and reads of finished runs. Nothing is computed.
func runServeCached(b *bench) error {
	cells, err := gridseg.ValidateGridSpec(fixtureSpec)
	if err != nil {
		return err
	}
	b.opName, b.workName = "requests", "requests"
	b.names = [3]string{"read_p50_ms", "read_tail_ms", "reads_per_s"}
	st := &serveState{byKind: map[string][]time.Duration{}}

	s, err := timeSetup(b, serveSetupReps, func(rep int) (*stack, error) {
		st.fix = make([]fixture, fixtures)
		fill := func(cs gridseg.CellStore) error {
			for k := range st.fix {
				f := &st.fix[k]
				f.seed = deriveSeed(b.cfg.seed, streamFixture, k)
				res, err := gridseg.RunGrid(fixtureSpec, gridseg.GridOptions{Seed: f.seed, Store: cs})
				if err != nil {
					return err
				}
				var c, j bytes.Buffer
				if err := res.WriteCSV(&c); err != nil {
					return err
				}
				if err := res.WriteJSON(&j); err != nil {
					return err
				}
				f.csv, f.json = c.Bytes(), j.Bytes()
				if f.id, err = gridseg.GridID(fixtureSpec, f.seed); err != nil {
					return err
				}
			}
			return nil
		}
		dir := filepath.Join(b.dir, fmt.Sprintf("store-%d", rep))
		s, err := startStack(b.tr, dir, stackOptions{maxRuns: registryRuns, fill: fill})
		if err != nil {
			return nil, err
		}
		st.finished = st.finished[:0]
		for k := 0; k < warmFixtures; k++ {
			if err := cachedSweep(s.client, st, k, cells, ""); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up submission: %w", err)
			}
			st.finish(k)
		}
		return s, nil
	}, (*stack).close)
	if err != nil {
		return err
	}
	defer s.close()
	st.next.Store(warmFixtures)

	tr := b.tr
	if tr != nil {
		tr.current.Store("mix")
		tr.start()
	}
	start := time.Now()
	deadline := b.deadline()
	var wg sync.WaitGroup
	for c := 0; c < readClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(deriveSeed(b.cfg.seed, streamPick, c), 0))
			for round := 0; ; round++ {
				if tr != nil && round >= tracedRounds(b.cfg.seconds) {
					return
				}
				for _, kind := range mixKinds {
					if tr == nil && time.Now().After(deadline) {
						return
					}
					trace := fmt.Sprintf("mix-%d-%d-%s", c, round, kind)
					var root int64
					if tr != nil {
						root = tr.open(trace, false)
					}
					opStart := time.Now()
					err := serveOp(s.client, st, kind, cells, rng, trace)
					d := time.Since(opStart)
					if tr != nil {
						tr.record(root, 0, trace, kind, opStart, opStart.Add(d))
					}
					if b.check(err) {
						b.addLatency(d)
						st.mu.Lock()
						st.byKind[kind] = append(st.byKind[kind], d)
						st.mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	b.workWall = time.Since(start)
	b.work = float64(len(b.lat))
	for _, kind := range mixKinds {
		b.reportf("  %s: p50 %.3f ms over %d requests", kind, ms(median(st.byKind[kind])), len(st.byKind[kind]))
	}
	b.reportf("  cached_sweep_p50_ms = %.3f", ms(median(st.byKind["cached_sweep"])))
	if tr != nil {
		subs := int64(len(st.byKind["cached_sweep"]))
		tr.count("cells.cached", subs*int64(cells))
		b.traceExtra = append(b.traceExtra, metric{"traced.cached_sweep_p50_ms", "ms", ms(median(st.byKind["cached_sweep"]))})
	}
	return nil
}

// serveOp issues one request of the mix and checks its answer against
// the bytes recorded when the store was filled.
func serveOp(c *client, st *serveState, kind string, cells int, rng *rand.Rand, trace string) error {
	if kind == "cached_sweep" {
		k := int(st.next.Add(1)-1) % fixtures
		if err := cachedSweep(c, st, k, cells, trace); err != nil {
			return err
		}
		st.finish(k)
		return nil
	}
	f := st.pick(rng)
	path := "/grids/" + f.id
	switch kind {
	case "artifact_csv":
		body, err := c.get(path+"/artifact.csv", trace)
		if err != nil {
			return err
		}
		return sameBytes("artifact.csv of "+f.id, body, f.csv)
	case "artifact_json":
		body, err := c.get(path+"/artifact.json", trace)
		if err != nil {
			return err
		}
		return sameBytes("artifact.json of "+f.id, body, f.json)
	case "status":
		body, err := c.get(path, trace)
		if err != nil {
			return err
		}
		var gs gridStatus
		if err := json.Unmarshal(body, &gs); err != nil {
			return fmt.Errorf("status of %s: %w", f.id, err)
		}
		if gs.State != "done" || gs.Cells != cells || gs.Cache.Misses != 0 || gs.Cache.Hits != cells {
			return fmt.Errorf("status of %s: %s, %d cells, %d hits, %d misses", f.id, gs.State, gs.Cells, gs.Cache.Hits, gs.Cache.Misses)
		}
		return nil
	case "sse_replay":
		ev, err := c.follow(f.id, trace)
		if err != nil {
			return err
		}
		if ev.cells != cells || ev.doneCells != cells || ev.misses != 0 {
			return fmt.Errorf("events of %s: %d cell events, done with %d cells and %d misses", f.id, ev.cells, ev.doneCells, ev.misses)
		}
		return nil
	}
	return fmt.Errorf("unknown request kind %q", kind)
}

// cachedSweep submits fixture k, whose cells are all in the store but
// whose run is not in the server's registry, and checks that it is
// served without computing and equals the recorded artifact.
func cachedSweep(c *client, st *serveState, k, cells int, trace string) error {
	f := st.fix[k]
	r, err := c.sweep(fixtureSpec, f.seed, trace)
	if err != nil {
		return err
	}
	if err := checkSweep(r, cells, true); err != nil {
		return err
	}
	return sameBytes("cached sweep "+f.id, r.csv, f.csv)
}
