package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tracedRun runs one short traced run of a workload.
func tracedRun(t *testing.T, workload string, seed uint64) *result {
	t.Helper()
	dir := t.TempDir()
	res, err := run(config{
		workload: workload, seed: seed, seconds: 1, trace: true,
		workdir: dir, spans: filepath.Join(dir, "spans.json"),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.correct() {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, res.failed, res.attempted, res.failures)
	}
	return res
}

// TestTracedRunsRepeat checks that two traced runs at the same seed
// give the same exact counts, that the cluster's artifacts equal the
// in-process ones, and that fixation-giant never reaches the layers
// it bypasses.
func TestTracedRunsRepeat(t *testing.T) {
	runs := map[string]*result{}
	for _, w := range workloadNames() {
		a, b := tracedRun(t, w, 7), tracedRun(t, w, 7)
		if !reflect.DeepEqual(a.counts, b.counts) {
			t.Errorf("%s: exact counts differ between two runs at one seed:\n%v\n%v", w, a.counts, b.counts)
		}
		runs[w] = a
	}
	if got := runs["sweep-local"].counts["cells.computed"]; got == 0 {
		t.Errorf("sweep-local computed no cells")
	}
	local, cluster := runs["sweep-local"].digests, runs["sweep-cluster"].digests
	if len(local) == 0 || !reflect.DeepEqual(local, cluster) {
		t.Errorf("sweep-cluster artifacts %v differ from sweep-local's %v", cluster, local)
	}
	if runs["serve-cached"].counts["cells.computed"] != 0 || runs["serve-cached"].counts["store.get.calls"] == 0 {
		t.Errorf("serve-cached counts %v: want store reads and no computed cells", runs["serve-cached"].counts)
	}
	for _, m := range runs["fixation-giant"].metrics {
		bypassed := strings.HasPrefix(m.name, "store.") || strings.HasPrefix(m.name, "fabric.") || strings.HasPrefix(m.name, "server.")
		if bypassed && m.value != 0 {
			t.Errorf("fixation-giant reports %s = %v, want 0", m.name, m.value)
		}
	}
}

func TestTail(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 30; i++ {
		ds = append(ds, time.Duration(i))
	}
	// Ten of the thirty samples lie above the 20th.
	if v, pct := tail(ds); v != 20 || pct < 66.6 || pct > 66.7 {
		t.Errorf("tail of 1..30 = %v at p%.2f, want 20 at p66.67", v, pct)
	}
	if v, pct := tail(ds[:5]); v != 5 || pct != 100 {
		t.Errorf("tail of 1..5 = %v at p%.0f, want the maximum at p100", v, pct)
	}
	// Three blocks whose tails (p99, the 990th sample) are 990, 1990
	// and 2990, then a partial block that is left out.
	ds = ds[:0]
	for i := 1; i <= 3*tailBlock+500; i++ {
		ds = append(ds, time.Duration(i))
	}
	if v, pct, blocks := runTail(ds); v != 1990 || pct != 99 || blocks != 3 {
		t.Errorf("runTail = %v at p%.2f over %d blocks, want 1990 at p99 over 3", v, pct, blocks)
	}
}
