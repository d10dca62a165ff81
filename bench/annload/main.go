// Command annload is the repository's serving benchmark: it starts the
// real serve.Server on a loopback listener in its own process, drives
// it closed-loop over HTTP keep-alive connections, verifies the replies
// against exact ground truth, and prints every metric by name and unit.
// See bench/README.md.
//
//	annload --workload filtered --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// a correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Defaults of one run. With them a run fits the driver's per-run budget
// on two cores (see bench/README.md, "Run shape").
const (
	defaultPoints  = 10000
	defaultPool    = 8192
	defaultSeconds = 20
	defaultSetups  = 3
	// 1,280 POSTs take about 2 s. A probe of a fraction of a second reads
	// this machine's state at one moment and spreads 10–18% between runs.
	defaultProbe  = 1280
	warmupSeconds = 2
	// outDir, relative to the checkout root the program is run from, takes
	// the span files and the temporary store.
	outDir = "bench/out"
)

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run: batch_search, filtered, hybrid, mixed_rw or all")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured phase in seconds")
		trace     = flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics and "+outDir+"/trace-<workload>.jsonl")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare the end-to-end metrics against the bounds in ./BENCHMARK.json")
	)
	flag.Parse()
	cfg := runConfig{
		seed:    *seed,
		points:  defaultPoints,
		pool:    defaultPool,
		warmup:  warmupSeconds * time.Second,
		measure: time.Duration(*seconds * float64(time.Second)),
		setups:  defaultSetups,
		probe:   defaultProbe,
		trace:   *trace != 0,
		outDir:  outDir,
		log:     os.Stdout,
	}
	if cfg.trace {
		cfg.setups = 1
	}
	printEnv(os.Stdout)

	if *selfcheck {
		ok, err := selfCheck(cfg, "BENCHMARK.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "annload: selfcheck: %v\n", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	ws := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "annload: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	ok := true
	for _, w := range ws {
		rep, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "annload: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		rep.print(os.Stdout)
		if rep.err != nil {
			fmt.Fprintf(os.Stderr, "annload: %s: %v\n", w.name, rep.err)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// printEnv records where the numbers were taken.
func printEnv(w io.Writer) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# annload: nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// print writes the metric table and, last, the result object.
func (r *report) print(w io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.err == nil,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-14s %-36s %14.4f %s\n", r.workload, m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or infinite value cannot be marshalled.
		fmt.Fprintf(os.Stderr, "annload: %s: unprintable result: %v\n", r.workload, err)
		os.Exit(2)
	}
	fmt.Fprintf(w, "%s\n", b)
}
