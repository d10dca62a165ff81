// annbuild builds a partitioned VP+HNSW index (the paper's engine in its
// single-node form) from an fvecs file and saves it:
//
//	annbuild -data sift.fvecs -partitions 16 -m 16 -out sift.ann
//
// -skip/-limit carve one shard out of a larger corpus while keeping
// global IDs (row i of the file keeps ID i), so per-shard indexes for a
// sharded deployment (annworker -serve + annserve -shards) merge
// correctly at the gateway:
//
//	annbuild -data sift.fvecs -skip 0      -limit 500000 -out shard0.ann
//	annbuild -data sift.fvecs -skip 500000 -limit 500000 -out shard1.ann
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hnsw"
	"repro/internal/vec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("annbuild: ")
	var (
		data   = flag.String("data", "", "input fvecs file (required)")
		limit  = flag.Int("limit", 0, "load at most this many points (0 = all)")
		skip   = flag.Int("skip", 0, "skip this many leading points; loaded rows keep their global IDs (sharded builds)")
		parts  = flag.Int("partitions", 16, "number of VP-tree partitions")
		m      = flag.Int("m", 16, "HNSW M parameter")
		efc    = flag.Int("efc", 200, "HNSW efConstruction")
		nprobe = flag.Int("nprobe", 2, "partitions searched per query (stored as default)")
		seed   = flag.Int64("seed", 1, "construction seed")
		out    = flag.String("out", "index.ann", "output index file")

		frozenReport = flag.Bool("frozen-report", false, "after building, freeze with SQ8 and report the flat-layout footprint plus sampled quantized recall vs the scalar path (the index file is unaffected)")
	)
	flag.Parse()
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}
	loadN := *limit
	if *skip > 0 && loadN > 0 {
		loadN += *skip
	}
	ds, err := dataset.LoadFvecsFile(*data, loadN)
	if err != nil {
		log.Fatal(err)
	}
	if *skip > 0 {
		if *skip >= ds.Len() {
			log.Fatalf("-skip %d leaves no points (file has %d)", *skip, ds.Len())
		}
		// Slice keeps the parallel ID slice, so row i of the file stays
		// ID i in the shard index — the invariant gateway merging needs.
		ds = ds.Slice(*skip, ds.Len())
	}
	fmt.Printf("loaded %d x %d from %s (skip %d)\n", ds.Len(), ds.Dim, *data, *skip)

	cfg := core.DefaultConfig(*parts)
	cfg.NProbe = *nprobe
	cfg.Seed = *seed
	cfg.HNSW = hnsw.DefaultConfig(vec.L2)
	cfg.HNSW.M = *m
	cfg.HNSW.EfConstruction = *efc

	t0 := time.Now()
	e, err := core.NewEngine(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %d partitions in %v\n", e.Partitions(), time.Since(t0).Round(time.Millisecond))

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := e.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(*out)
	fmt.Printf("wrote %s (%.1f MB)\n", *out, float64(st.Size())/(1<<20))

	if *frozenReport {
		reportFrozen(e, ds)
	}
}

// reportFrozen freezes the just-built engine with SQ8 on and prints what
// serving it frozen would cost and return: the bytes the frozen layout
// adds (adjacency and SQ8 codes; the rows are the graph's) and recall@10
// of the quantized path against the scalar path over sampled rows.
func reportFrozen(e *core.Engine, ds *vec.Dataset) {
	const k, samples = 10, 100
	step := ds.Len() / samples
	if step < 1 {
		step = 1
	}
	queries := make([][]float32, 0, samples)
	for i := 0; i < ds.Len() && len(queries) < samples; i += step {
		queries = append(queries, ds.At(i))
	}
	baseline := make([]map[int64]bool, len(queries))
	for i, q := range queries {
		rs, err := e.Search(q, k)
		if err != nil {
			log.Fatal(err)
		}
		baseline[i] = make(map[int64]bool, len(rs))
		for _, r := range rs {
			baseline[i][r.ID] = true
		}
	}
	t0 := time.Now()
	if err := e.Freeze(hnsw.FreezeOptions{SQ8: true}); err != nil {
		log.Fatal(err)
	}
	froze := time.Since(t0)
	hits, want := 0, 0
	for i, q := range queries {
		rs, err := e.Search(q, k)
		if err != nil {
			log.Fatal(err)
		}
		want += len(baseline[i])
		for _, r := range rs {
			if baseline[i][r.ID] {
				hits++
			}
		}
	}
	fi, _ := e.FrozenInfo()
	fmt.Printf("frozen report: froze %d partitions in %v, %.1f MiB adjacency+codes (sq8)\n",
		fi.Partitions, froze.Round(time.Millisecond), float64(fi.ArenaBytes)/(1<<20))
	if want > 0 {
		fmt.Printf("frozen report: sq8 recall@%d vs scalar = %.4f over %d sampled queries (rerank ratio %.2f)\n",
			k, float64(hits)/float64(want), len(queries), fi.RerankRatio())
	}
}
