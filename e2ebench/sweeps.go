package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"gridseg"
)

// sweepSpec is the grid every measured sweep submits, each time with a
// fresh seed: 96 cells, two lattice sizes, the paper's tau window.
const sweepSpec = "n=32,96 w=1:3 tau=0.36:0.48:0.04 reps=4"

// warmSpec is the small sweep each set-up runs once, so that the first
// measured sweep finds connections open and the server's paths warm.
const warmSpec = "n=16 w=1 tau=0.4 reps=2"

// setupReps is how often a run repeats its set-up; setup_s is the
// median.
const setupReps = 15

// tracedSweeps is the number of sweeps of a traced run. A traced run
// does a fixed amount of work, so that its exact counts repeat at the
// same seed; a sweep and its replay take about half a second.
func tracedSweeps(seconds int) int { return 2 * seconds }

// runSweeps is sweep-local (in-process segd) and sweep-cluster (a
// coordinator with two fabric workers): one closed-loop client submits
// uncached sweeps, follows each to done and fetches its artifact.
func runSweeps(b *bench, cluster bool) error {
	cells, err := gridseg.ValidateGridSpec(sweepSpec)
	if err != nil {
		return err
	}
	warmCells, err := gridseg.ValidateGridSpec(warmSpec)
	if err != nil {
		return err
	}
	b.opName, b.workName = "sweeps", "computed cells"
	b.names = [3]string{"sweep_p50_ms", "sweep_tail_ms", "cells_per_s"}

	s, err := timeSetup(b, setupReps, func(rep int) (*stack, error) {
		dir := filepath.Join(b.dir, fmt.Sprintf("store-%d", rep))
		return startStack(b.tr, dir, stackOptions{
			cluster:   cluster,
			warmSpec:  warmSpec,
			warmSeed:  deriveSeed(b.cfg.seed, streamWarmup, rep),
			warmCells: warmCells,
		})
	}, (*stack).close)
	if err != nil {
		return err
	}
	defer s.close()

	// The reference artifact of the first sweep, computed off the clock.
	seed0 := deriveSeed(b.cfg.seed, streamSweep, 0)
	ref0, err := runGridCSV(sweepSpec, seed0)
	if err != nil {
		return err
	}

	tr := b.tr
	if tr != nil {
		tr.start()
	}
	type done struct {
		trace string
		seed  uint64
		csv   []byte
	}
	var finished []done
	var computed int
	var lastSeed uint64
	var lastCSV []byte
	start := time.Now()
	deadline := b.deadline()
	for i := 0; ; i++ {
		if tr != nil && i >= tracedSweeps(b.cfg.seconds) || tr == nil && time.Now().After(deadline) {
			break
		}
		seed := deriveSeed(b.cfg.seed, streamSweep, i)
		trace := fmt.Sprintf("sweep-%d", i)
		var root int64
		if tr != nil {
			root = tr.open(trace, true)
		}
		opStart := time.Now()
		r, err := s.client.sweep(sweepSpec, seed, trace)
		if tr != nil {
			tr.record(root, 0, trace, "sweep", opStart, time.Now())
		}
		if err == nil {
			err = checkSweep(r, cells, false)
		}
		if !b.check(err) {
			continue
		}
		b.addLatency(r.latency)
		computed += r.ev.misses
		sum := sha256.Sum256(r.csv)
		b.digests = append(b.digests, hex.EncodeToString(sum[:]))
		lastSeed, lastCSV = seed, r.csv
		if i == 0 {
			b.check(sameBytes("first sweep vs RunGrid", r.csv, ref0))
		}
		if tr != nil {
			tr.count("cells.computed", int64(r.ev.misses))
			tr.count("cells.cached", int64(r.ev.hits))
			if !r.ev.firstCellAt.IsZero() {
				tr.record(0, root, trace, "first_cell", opStart, r.ev.firstCellAt)
			}
			finished = append(finished, done{trace, seed, r.csv})
		}
	}
	b.work, b.workWall = float64(computed), time.Since(start)
	// The replay runs after the load, so the traced sweeps meet the
	// server in the same state as the untraced ones.
	for _, d := range finished {
		b.check(replay(tr, d.trace, sweepSpec, d.seed, d.csv))
	}

	// The last sweep, off the clock: in cluster mode this checks that
	// the fabric's artifact equals the in-process one.
	if lastCSV != nil && lastSeed != seed0 {
		ref, err := runGridCSV(sweepSpec, lastSeed)
		if err != nil {
			return err
		}
		b.check(sameBytes("last sweep vs RunGrid", lastCSV, ref))
	}
	if tr != nil && cluster {
		// The replay's per-cell time must account for the time the
		// workers' Runner spent on the same cells.
		b.check(checkRunnerRatio(tr))
	}
	return nil
}

// checkSweep checks a sweep's submission, cache split and artifact: a
// new run, every cell served from the store when cached is set and
// every cell computed otherwise.
func checkSweep(r sweepResult, cells int, cached bool) error {
	if r.status != http.StatusAccepted {
		return fmt.Errorf("grid %s: POST answered %d, want 202 for a new run", r.id, r.status)
	}
	if r.ev.doneCells != cells || r.ev.hits+r.ev.misses != cells {
		return fmt.Errorf("grid %s: done reports %d cells (%d hits, %d misses), want %d", r.id, r.ev.doneCells, r.ev.hits, r.ev.misses, cells)
	}
	if cached && r.ev.misses != 0 {
		return fmt.Errorf("grid %s: cached sweep reports %d misses", r.id, r.ev.misses)
	}
	if !cached && r.ev.hits != 0 {
		return fmt.Errorf("grid %s: uncached sweep reports %d cache hits", r.id, r.ev.hits)
	}
	return checkArtifact(r.csv, cells)
}

func sameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d bytes differ from the %d expected", what, len(got), len(want))
	}
	return nil
}

// runGridCSV is the reference artifact of a sweep: gridseg.RunGrid in
// this process, with no store.
func runGridCSV(spec string, seed uint64) ([]byte, error) {
	res, err := gridseg.RunGrid(spec, gridseg.GridOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runnerSlack bounds how far the replay's per-cell time may stray from
// the time the fabric workers' Runner took for the same cells. The two
// do the same calls, but the workers run two cells at once on two CPUs
// next to the coordinator and the client, while the replay runs alone.
const runnerSlack = 0.3

func checkRunnerRatio(tr *tracer) error {
	tr.mu.Lock()
	replayT, runnerT := tr.busy["replay.cell"], tr.busy["fabric.cell"]
	tr.mu.Unlock()
	if runnerT == 0 {
		return fmt.Errorf("no fabric.cell spans were recorded")
	}
	r := float64(replayT) / float64(runnerT)
	if r < 1-runnerSlack || r > 1+runnerSlack {
		return fmt.Errorf("replay per-cell time is %.2f of the Runner's, outside 1±%.2f", r, runnerSlack)
	}
	return nil
}
