// annmaster runs the master rank of a real TCP deployment of the
// distributed engine. Start one master (rank 0) and P workers:
//
//	annmaster -addrs host0:7000,host1:7000,host2:7000 -data sift.fvecs \
//	          -queries sift_query.fvecs -k 10 -replication 2
//	annworker -rank 1 -addrs host0:7000,host1:7000,host2:7000
//	annworker -rank 2 -addrs host0:7000,host1:7000,host2:7000
//
// The master's join message tells every worker what to do, so the
// settings the ranks must agree on are given here only: -replication,
// -seed, -checkpoint and -resume (the two directories are rank 0's
// paths, resolved on every worker's host). Each worker sets only its own
// searcher threads (annworker -threads). The master scatters the
// dataset, drives the distributed VP-tree + HNSW construction
// (Algorithms 1-2) or has the workers load the checkpoint, answers the
// query batch with the master-worker protocol (Algorithms 3-5) and
// prints results/recall.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("annmaster: ")
	var (
		addrs   = flag.String("addrs", "", "comma-separated rank addresses; this process is rank 0 (required)")
		data    = flag.String("data", "", "dataset fvecs file (required)")
		queries = flag.String("queries", "", "query fvecs file (required)")
		gt      = flag.String("gt", "", "optional ground-truth ivecs for recall")
		limit   = flag.Int("limit", 0, "load at most this many points")
		k       = flag.Int("k", 10, "neighbors per query")
		nprobe  = flag.Int("nprobe", 2, "partitions searched per query")
		repl    = flag.Int("replication", 1, "replication factor for load balancing (every worker builds with it)")
		seed    = flag.Int64("seed", 1, "construction seed (every worker builds with it)")
		wait    = flag.Duration("wait", 60*time.Second, "worker dial timeout")
		ckpt    = flag.String("checkpoint", "", "every worker saves its built partition under this directory")
		resume  = flag.String("resume", "", "serve from this checkpoint directory instead of building (every worker loads it)")
		traceTo = flag.String("trace", "", "write a master-side event timeline to this file")

		queryTimeout = flag.Duration("query-timeout", 10*time.Second,
			"per-round collection deadline (0 = no round deadline; dead workers are still detected)")
		retries      = flag.Int("retries", 2, "retry rounds for tasks lost to worker failures")
		retryBackoff = flag.Duration("retry-backoff", 50*time.Millisecond, "base backoff between retry rounds (doubles per round)")
		hbInterval   = flag.Duration("hb-interval", time.Second, "TCP heartbeat period (negative disables)")
		hbTimeout    = flag.Duration("hb-timeout", 5*time.Second, "declare a silent peer dead after this long")
	)
	flag.Parse()
	list := strings.Split(*addrs, ",")
	if *addrs == "" || len(list) < 2 || *data == "" || *queries == "" {
		flag.Usage()
		os.Exit(2)
	}
	ds, err := dataset.LoadFvecsFile(*data, *limit)
	if err != nil {
		log.Fatal(err)
	}
	qs, err := dataset.LoadFvecsFile(*queries, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %d x %d, %d queries, %d workers\n", ds.Len(), ds.Dim, qs.Len(), len(list)-1)

	node, comm, err := cluster.JoinTCPOpts(0, list, cluster.TCPOptions{
		DialTimeout:       *wait,
		HeartbeatInterval: *hbInterval,
		HeartbeatTimeout:  *hbTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	cfg := core.DefaultConfig(len(list) - 1)
	cfg.K = *k
	cfg.NProbe = *nprobe
	cfg.Replication = *repl
	cfg.Seed = *seed
	cfg.CheckpointDir = *ckpt
	cfg.QueryTimeout = *queryTimeout
	cfg.MaxRetries = *retries
	cfg.RetryBackoff = *retryBackoff
	var rec *trace.Recorder
	if *traceTo != "" {
		rec = trace.New(1 << 16)
		cfg.Trace = rec
	}

	driver := func(m *core.Master) error {
		cs := m.ConstructionStats()
		if *resume == "" {
			fmt.Printf("construction: vptree=%v hnsw=%v replicate=%v\n",
				cs.VPTree.Round(time.Millisecond), cs.HNSW.Round(time.Millisecond),
				cs.Replicate.Round(time.Millisecond))
		}
		res, err := m.Search(qs)
		if err != nil {
			return err
		}
		fmt.Printf("answered %d queries in %v (%.0f q/s), dispatched %d tasks\n",
			qs.Len(), res.Elapsed.Round(time.Microsecond),
			float64(qs.Len())/res.Elapsed.Seconds(), res.Dispatched)
		if res.Failovers > 0 || res.Retries > 0 {
			fmt.Printf("fault tolerance: %d failovers over %d retry rounds\n", res.Failovers, res.Retries)
		}
		if res.Degraded {
			fmt.Printf("WARNING: degraded batch — partitions %v unavailable (no live replica)\n", res.FailedPartitions)
		}
		if *gt != "" {
			gf, err := os.Open(*gt)
			if err != nil {
				return err
			}
			truth, err := dataset.ReadIvecs(gf, qs.Len())
			gf.Close()
			if err != nil {
				return err
			}
			for i := range truth {
				if len(truth[i]) > *k {
					truth[i] = truth[i][:*k]
				}
			}
			fmt.Printf("recall@%d = %.4f\n", *k, metrics.MeanRecall(res.Results, truth))
		}
		return nil
	}
	if *resume != "" {
		err = core.RunClusterFromCheckpoint(comm, *resume, cfg, driver)
	} else {
		err = core.RunCluster(comm, ds, cfg, driver)
	}
	if err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		tf, err := os.Create(*traceTo)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.Summary(tf); err == nil {
			err = rec.Timeline(tf)
		}
		if err := tf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s\n", *traceTo)
	}
}
