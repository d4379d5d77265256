// Command e2ebench is the repository's end-to-end benchmark. It drives
// the system only through its public entry points — a segd server
// (server.New + Handler) over loopback HTTP, fabric workers, the
// gridseg model API and the result store — and times each layer from
// outside by wrapping the calls into it. README.md says why each
// workload exists and which layers it loads.
//
//	e2ebench --workload sweep-local --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics; with
// --trace 1 it runs the same workload with the layer wrappers on and
// prints the per-layer metrics instead. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Lines before it are a human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config holds the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// workdir holds the stores of the servers under test; each run
	// makes and removes its own directory below it.
	workdir string
	// spans is where a traced run writes its spans; empty means
	// <workdir>/spans-<workload>.json, which the next traced run of the
	// workload overwrites.
	spans string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed; every input of the run derives from it")
	fs.IntVar(&c.seconds, "seconds", 10, "length of the measured load phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.StringVar(&c.workdir, "workdir", ".bench_build/e2ebench-work", "directory for the stores of the servers under test")
	fs.StringVar(&c.spans, "spans", "", "file for the spans of a traced run (default <workdir>/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if workloads[c.workload] == nil {
		return c, fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	if c.seconds < 1 {
		return c, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1")
	}
	c.trace = trace == 1
	if c.spans == "" {
		c.spans = filepath.Join(c.workdir, "spans-"+c.workload+".json")
	}
	return c, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
		}
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, line := range res.report {
		fmt.Println(line)
	}
	for _, f := range res.failures {
		fmt.Println("FAILED:", f)
	}
	out := summary{
		Correct:   res.correct(),
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range res.metrics {
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
