// annbench regenerates the paper's tables and figures. Each experiment
// executes the full distributed protocol in-process and, where the
// paper's core counts exceed the machine, prices measured work with the
// calibrated cost model (see DESIGN.md and EXPERIMENTS.md).
//
//	annbench -experiment table3
//	annbench -experiment all -points 50000 -queries 1000
//
// The serving stack's benchmark is annload (bench/run.sh), not this
// command.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("annbench: ")
	var (
		name    = flag.String("experiment", "all", "experiment name or 'all' / 'list'")
		points  = flag.Int("points", 100_000, "points in each dataset stand-in")
		queries = flag.Int("queries", 2000, "queries per batch")
		k       = flag.Int("k", 10, "neighbors per query")
		seed    = flag.Int64("seed", 1, "workload seed")
		quick   = flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
	)
	flag.Parse()

	if *name == "list" {
		for _, e := range exp.All() {
			fmt.Printf("  %-15s %s\n", e.Name, e.Paper)
		}
		return
	}
	opts := exp.Options{
		Points:  *points,
		Queries: *queries,
		K:       *k,
		Seed:    *seed,
		Out:     os.Stdout,
		Quick:   *quick,
	}
	run := func(e exp.Experiment) {
		t0 := time.Now()
		if err := e.Run(opts); err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Printf("[%s done in %v]\n", e.Name, time.Since(t0).Round(time.Millisecond))
	}
	if *name == "all" {
		for _, e := range exp.All() {
			run(e)
		}
		return
	}
	e, err := exp.Find(*name)
	if err != nil {
		log.Fatal(err)
	}
	run(e)
}
