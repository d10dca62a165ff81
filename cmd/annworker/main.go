// annworker runs one worker of a TCP deployment, in one of two modes.
//
// Rank mode (the default; see annmaster for the full invocation): the
// worker joins the cluster and does what rank 0's join message says —
// build (receive its shard, take part in the distributed VP-tree
// construction, build its local HNSW index, save it if rank 0 names a
// checkpoint directory) or load its partition from the checkpoint rank 0
// resumes — then serves query batches until the master shuts the
// cluster down. The replication factor, seed, metric, HNSW settings and
// checkpoint paths are all rank 0's; a worker's own flags set only its
// searcher threads and its transport:
//
//	annworker -rank 1 -addrs host0:7000,host1:7000,host2:7000 -threads 4
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
		threads = flag.Int("threads", 4, "searcher threads")
		wait    = flag.Duration("wait", 60*time.Second, "peer dial timeout")

		hbInterval = flag.Duration("hb-interval", time.Second, "TCP heartbeat period (negative disables)")
		hbTimeout  = flag.Duration("hb-timeout", 5*time.Second, "declare a silent peer dead after this long")

		serveMode = flag.Bool("serve", false, "shard-serving mode: serve a prebuilt index to annserve gateways")
		listen    = flag.String("listen", ":7100", "shard RPC listen address (serve mode)")
		indexPath = flag.String("index", "", "index file from annbuild (serve mode; required)")
		shard     = flag.Int("shard", 0, "this worker's shard number in the gateway's -shards map (serve mode)")
		nprobe    = flag.Int("nprobe", 0, "override partitions searched per query (serve mode; 0 = keep the index's setting)")
		ef        = flag.Int("ef", 0, "override HNSW efSearch (serve mode)")
	)
	flag.Parse()
	if *serveMode {
		runShardServer(*listen, *indexPath, *shard, *threads, *nprobe, *ef)
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

	log.Printf("joined cluster of %d ranks, serving", len(list))
	if err := core.RunCluster(comm, nil, core.Config{ThreadsPerWorker: *threads}, nil); err != nil {
		log.Fatal(err)
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
