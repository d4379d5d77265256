package main

import (
	"bytes"
	"fmt"
	"time"

	"gridseg"
	"gridseg/internal/batch"
	"gridseg/internal/grid"
	"gridseg/internal/measure"
	"gridseg/internal/rng"
)

// replay recomputes every cell of a finished sweep single-threaded
// through the public calls — gridseg.New, Model.Run,
// Model.SegregationStats and measure.MeanMonoRegionSize — timing each
// one as a span of the sweep's trace. It fails unless the replayed
// cells reassemble into exactly the artifact the server returned, so
// the per-layer split is a split of the very work the sweep did.
func replay(t *tracer, trace, spec string, seed uint64, artifact []byte) error {
	jobs, err := gridseg.GridJobs(spec, seed)
	if err != nil {
		return err
	}
	values := make([][]float64, len(jobs))
	for i, j := range jobs {
		cellID := t.newID()
		start := time.Now()
		v, err := replayCell(t, trace, cellID, j.Cell, rng.New(j.Seed))
		if err != nil {
			return fmt.Errorf("replaying cell %d: %w", i, err)
		}
		t.record(cellID, -1, trace, "replay.cell", start, time.Now())
		values[i] = v
	}
	res, err := gridseg.AssembleGrid(spec, values, gridseg.CacheStats{})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), artifact) {
		return fmt.Errorf("replay of %s seed %d does not reproduce the artifact", spec, seed)
	}
	return nil
}

// replayCell builds, runs and measures one cell the way a sweep does:
// the model seed is the first draw of the cell's stream, and sweeps pin
// the parallel engine to one strip.
func replayCell(t *tracer, trace string, parent int64, c batch.Cell, src *rng.Source) ([]float64, error) {
	dyn := gridseg.Glauber
	switch c.Dynamic {
	case batch.Kawasaki:
		dyn = gridseg.Kawasaki
	case batch.Move:
		dyn = gridseg.Move
	}
	engine, err := gridseg.ParseEngine(c.Engine)
	if err != nil {
		return nil, err
	}
	boundary, err := gridseg.ParseBoundary(c.Boundary)
	if err != nil {
		return nil, err
	}
	cfg := gridseg.Config{
		N: c.N, W: c.W, Tau: c.Tau, P: c.P,
		Seed: src.Uint64(), Dynamic: dyn, Engine: engine,
		Boundary: boundary, Rho: c.Rho, TauDist: c.TauDist,
		Par: c.Par, ParStrips: 1,
	}
	m, fixated, st, err := trajectory(t, trace, parent, cfg)
	if err != nil {
		return nil, err
	}
	lat, ok := m.View().(*grid.Lattice)
	if !ok {
		return nil, fmt.Errorf("model view is a %T, not a *grid.Lattice", m.View())
	}
	start := time.Now()
	meanM := measure.MeanMonoRegionSize(lat, measure.SamplePoints(c.N, 5))
	t.record(0, parent, trace, "measure.mono", start, time.Now())
	fix := 0.0
	if fixated {
		fix = 1
	}
	return []float64{
		st.HappyFraction, float64(st.UnhappyCount), st.InterfaceDensity,
		st.MeanSameFraction, st.LargestClusterFraction, st.Magnetization,
		meanM, float64(st.Flips), fix,
	}, nil
}

// trajectory runs New, Run(0) and SegregationStats, timing each call
// as a child of parent when t is non-nil. It is the unit operation of
// fixation-giant and the first half of a replayed sweep cell.
func trajectory(t *tracer, trace string, parent int64, cfg gridseg.Config) (*gridseg.Model, bool, gridseg.Stats, error) {
	t0 := time.Now()
	m, err := gridseg.New(cfg)
	if err != nil {
		return nil, false, gridseg.Stats{}, err
	}
	t1 := time.Now()
	flips, fixated := m.Run(0)
	t2 := time.Now()
	st := m.SegregationStats()
	t3 := time.Now()
	if t != nil {
		t.record(0, parent, trace, "build", t0, t1)
		t.record(0, parent, trace, "dynamics", t1, t2)
		t.record(0, parent, trace, "measure.stats", t2, t3)
		t.count("dynamics.flips", flips)
	}
	return m, fixated, st, nil
}
