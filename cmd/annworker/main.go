// annworker runs one worker of a TCP deployment, in one of two modes.
//
// Rank mode (the default; see annmaster for the full invocation): the
// worker receives its shard from the master, participates in the
// distributed VP-tree construction, builds its local HNSW index, and
// serves query batches until the master shuts the cluster down.
//
// Serve mode (-serve): the worker loads a prebuilt index (annbuild) as
// one shard of a sharded serving deployment and answers batched
// searches from annserve gateways over the shard RPC until SIGTERM:
//
//	annworker -serve -listen :7100 -index shard0.ann -shard 0
//
// Start one per shard (and per replica), then point a gateway at them
// with annserve -shards.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	var (
		rank    = flag.Int("rank", 0, "this worker's rank (1..P; required)")
		addrs   = flag.String("addrs", "", "comma-separated rank addresses (required)")
		k       = flag.Int("k", 10, "neighbors per query (must match the master)")
		nprobe  = flag.Int("nprobe", 2, "must match the master")
		repl    = flag.Int("replication", 1, "must match the master")
		threads = flag.Int("threads", 4, "searcher threads")
		seed    = flag.Int64("seed", 1, "must match the master")
		wait    = flag.Duration("wait", 60*time.Second, "peer dial timeout")
		ckpt    = flag.String("checkpoint", "", "save the built index under this directory")
		resume  = flag.String("resume", "", "serve from a checkpoint directory instead of building")

		hbInterval = flag.Duration("hb-interval", time.Second, "TCP heartbeat period (negative disables)")
		hbTimeout  = flag.Duration("hb-timeout", 5*time.Second, "declare a silent peer dead after this long")

		serveMode = flag.Bool("serve", false, "shard-serving mode: serve a prebuilt index to annserve gateways")
		listen    = flag.String("listen", ":7100", "shard RPC listen address (serve mode)")
		indexPath = flag.String("index", "", "index file from annbuild (serve mode; required)")
		shard     = flag.Int("shard", 0, "this worker's shard number in the gateway's -shards map (serve mode)")
		ef        = flag.Int("ef", 0, "override HNSW efSearch (serve mode)")
	)
	flag.Parse()
	if *serveMode {
		// -nprobe is shared with rank mode, where its default (2) is
		// meaningful; in serve mode the loaded index keeps its own
		// setting unless the flag was given explicitly.
		np := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "nprobe" {
				np = *nprobe
			}
		})
		runShardServer(*listen, *indexPath, *shard, *threads, np, *ef)
		return
	}
	log.SetPrefix(fmt.Sprintf("annworker[%d]: ", *rank))
	list := strings.Split(*addrs, ",")
	if *addrs == "" || *rank <= 0 || *rank >= len(list) {
		flag.Usage()
		os.Exit(2)
	}
	node, comm, err := cluster.JoinTCPOpts(*rank, list, cluster.TCPOptions{
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
	cfg.ThreadsPerWorker = *threads
	cfg.Seed = *seed

	cfg.CheckpointDir = *ckpt
	log.Printf("joined cluster of %d ranks, serving", len(list))
	var err2 error
	if *resume != "" {
		err2 = core.RunClusterFromCheckpoint(comm, *resume, cfg, nil)
	} else {
		err2 = core.RunCluster(comm, nil, cfg, nil)
	}
	if err2 != nil {
		log.Fatal(err2)
	}
	log.Printf("shut down cleanly")
}

// runShardServer is serve mode: load the prebuilt shard index and
// answer gateway searches over the shard RPC until SIGTERM/SIGINT.
func runShardServer(listen, indexPath string, shard, threads, nprobe, ef int) {
	log.SetPrefix(fmt.Sprintf("annworker[shard %d]: ", shard))
	if indexPath == "" {
		log.Print("serve mode needs -index")
		flag.Usage()
		os.Exit(2)
	}
	if shard < 0 {
		log.Fatalf("-shard %d: shard numbers start at 0", shard)
	}
	f, err := os.Open(indexPath)
	if err != nil {
		log.Fatal(err)
	}
	e, err := core.LoadEngine(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if nprobe > 0 {
		e.SetNProbe(nprobe)
	}
	if ef > 0 {
		e.SetEfSearch(ef)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatal(err)
	}
	srv := cluster.NewShardServer(ln, cluster.ShardInfo{
		Shard:  shard,
		Dim:    e.Dim(),
		Points: int64(e.Len()),
	}, e.ShardHandler(threads))
	log.Printf("serving shard %d on %s: %d points, %d partitions, dim %d",
		shard, srv.Addr(), e.Len(), e.Partitions(), e.Dim())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigCh
	log.Printf("%v: shutting down", sig)
	srv.Close()
}
