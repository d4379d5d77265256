package main

import (
	"fmt"
	"runtime"
	"time"

	"gridseg"
)

// giantN is the side of fixation-giant's lattice (about a million
// agents). README.md says why it is not the 2048 first proposed.
const giantN = 1024

// parWorkers is the worker count of the parallel engine: one per CPU.
const parWorkers = 2

func giantConfig(n int, seed uint64, par int) gridseg.Config {
	return gridseg.Config{N: n, W: 1, Tau: 0.45, Seed: seed, Engine: gridseg.EngineParallel, Par: par}
}

// tracedTrajectories is the number of trajectories of a traced run.
func tracedTrajectories(seconds int) int { return 3 * seconds }

// runFixation is fixation-giant: single trajectories to fixation on
// the parallel engine, each New -> Run(0) -> SegregationStats. No
// store, fabric or HTTP is involved.
func runFixation(b *bench) error {
	b.opName, b.workName = "trajectories", "trajectories"
	b.names = [3]string{"fixation_ms", "fixation_tail_ms", "trajectories_per_s"}
	// The set-up runs one small trajectory, so the load starts with the
	// engine's code paths and the runtime's heap warm.
	if _, err := timeSetup(b, setupReps, func(rep int) (struct{}, error) {
		_, fixated, _, err := trajectory(nil, "", 0, giantConfig(256, deriveSeed(b.cfg.seed, streamWarmup, rep), parWorkers))
		if err == nil && !fixated {
			err = fmt.Errorf("warm-up trajectory did not fixate")
		}
		return struct{}{}, err
	}, func(struct{}) {}); err != nil {
		return err
	}

	tr := b.tr
	if tr != nil {
		tr.start()
	}
	var first gridseg.Stats
	start := time.Now()
	deadline := b.deadline()
	for i := 0; ; i++ {
		if tr != nil && i >= tracedTrajectories(b.cfg.seconds) || tr == nil && time.Now().After(deadline) {
			break
		}
		trace := fmt.Sprintf("trajectory-%d", i)
		var root int64
		if tr != nil {
			root = tr.open(trace, true)
		}
		opStart := time.Now()
		_, fixated, st, err := trajectory(tr, trace, root, giantConfig(giantN, deriveSeed(b.cfg.seed, streamTrajectory, i), parWorkers))
		d := time.Since(opStart)
		if tr != nil {
			tr.record(root, 0, trace, "trajectory", opStart, opStart.Add(d))
		}
		if err == nil && !fixated {
			err = fmt.Errorf("%s did not fixate", trace)
		}
		if !b.check(err) {
			continue
		}
		b.addLatency(d)
		if i == 0 {
			first = st
		}
		// Off the clock, drop this trajectory's lattice, so the next one
		// starts from a clean heap as a fresh giant run would, and the
		// peak RSS is that of one trajectory rather than of GC timing.
		runtime.GC()
	}
	b.work, b.workWall = float64(len(b.lat)), time.Since(start)
	b.reportf("  fixation_s = %.4f", median(b.lat).Seconds())

	// Off the clock: the worker count of the parallel engine is an
	// execution detail, so one worker must replay the first trajectory.
	_, _, st, err := trajectory(nil, "", 0, giantConfig(giantN, deriveSeed(b.cfg.seed, streamTrajectory, 0), 1))
	if err != nil {
		return err
	}
	if st != first {
		b.check(fmt.Errorf("trajectory 0 with 1 worker gives %v, with %d workers %v", st, parWorkers, first))
	} else {
		b.check(nil)
	}
	return nil
}
