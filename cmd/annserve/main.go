// annserve is the online serving gateway: a long-lived HTTP JSON query
// service over an index built with annbuild (single-process mode) or
// over a live worker cluster (distributed mode, master rank).
//
// Single process:
//
//	annserve -index sift.ann -addr :8080 -max-batch 64 -max-wait 2ms
//
// Single process with durable ingestion (write-ahead log + snapshots +
// background compaction; POST /v1/upsert and /v1/delete go live):
//
//	annserve -index sift.ann -wal /var/lib/ann/store -addr :8080
//
// On the first run the store directory is seeded from -index; later
// runs recover from the newest snapshot plus the WAL tail, and -index
// may be omitted.
//
// Add -lexical to either single-process form for hybrid retrieval:
// upsert points may carry "text" (tokenized into a BM25 inverted index,
// durable through the WAL and text sidecar when -wal is set) and
// POST /v1/hybrid fuses the keyword and vector rankings (RRF or
// weighted min-max):
//
//	annserve -index sift.ann -wal /var/lib/ann/store -lexical -addr :8080
//
// In multi-tenant mode hybrid retrieval is per-collection instead:
// create the collection with "lexical": true (optionally "bm25_k1",
// "bm25_b", "stopwords") and use /v1/collections/{name}/hybrid.
//
// Multi-tenant (named collections, each with its own dim, metric,
// WAL and quota; create/drop at runtime over HTTP):
//
//	annserve -collections /var/lib/ann/collections -addr :8080 \
//	         -collections-init collections.json
//
// Collection routes: POST /v1/collections ({"name":..,"dim":..}),
// GET /v1/collections, DELETE /v1/collections/{name}, and per-collection
// search/upsert/delete under /v1/collections/{name}/. Search bodies
// accept "filter" ('tag=v', 'tag in {a,b}', conjunctions with 'and'),
// pushed down into the graph traversal; upsert points accept "tags".
// The legacy un-prefixed routes alias the collection named "default".
//
// Distributed (this process is rank 0; start annworker ranks 1..P):
//
//	annserve -cluster host0:7000,host1:7000,host2:7000 \
//	         -data sift.fvecs -addr :8080
//
// Sharded (stateless router over annworker -serve shards; groups are
// ';'-separated, replicas within a group ','-separated):
//
//	annserve -shards host1:7100,host1b:7100;host2:7100;host3:7100 \
//	         -addr :8080
//
// The router scatter-gathers every query batch over one replica per
// shard, hedges slow shards, fails over inside each replica group, and
// answers with partial Degraded results (failed_partitions in the JSON
// body, counters on /varz) when a whole group is down.
//
// Endpoints:
//
//	POST /v1/search   {"query":[...]} or {"queries":[[...],...]},
//	                  optional "k" and "timeout_ms"
//	GET  /healthz     liveness (503 while draining); add ?ready=1 for
//	                  readiness, which also fails once the write path
//	                  has tripped the circuit breaker
//	GET  /varz        served-traffic counters + runtime snapshot (JSON)
//
// Storage chaos drills: -chaos 'sync:fail-after@100/wal' routes every
// store I/O call through a deterministic fault injector (internal/fsx)
// so operators can rehearse disk failure: the WAL poisons itself,
// mutations 503, searches keep serving.
//
// Concurrent requests are coalesced into batched search rounds; a full
// admission queue sheds load with 429 + Retry-After; SIGTERM/SIGINT
// drains gracefully (in-flight requests finish, new ones are refused).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fsx"
	"repro/internal/hnsw"
	"repro/internal/lexical"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("annserve: ")
	var (
		addr  = flag.String("addr", ":8080", "HTTP listen address")
		index = flag.String("index", "", "index file from annbuild (single-process mode)")

		colRoot = flag.String("collections", "", "multi-tenant mode: root directory holding named collections (each with its own WAL, snapshots, dim, metric); serves /v1/collections/{name}/*")
		colInit = flag.String("collections-init", "", "with -collections: JSON file of collections to create if absent ([{\"name\":\"docs\",\"dim\":128,\"metric\":\"cosine\",...},...])")

		walDir       = flag.String("wal", "", "durable store directory: WAL + snapshots + compaction (single-process mode)")
		walSyncEvery = flag.Int("wal-sync-every", 64, "fsync after this many WAL records (1 = every record)")
		walSyncInt   = flag.Duration("wal-sync-interval", 50*time.Millisecond, "group-commit fsync interval (0 = default, negative disables the ticker)")
		compactRatio = flag.Float64("compact-ratio", 0.25, "dead/live row ratio that triggers partition compaction (negative disables)")
		chaosSpec    = flag.String("chaos", "", "DRILLS ONLY: inject storage faults, comma-separated op:kind[@nth][~rate][/pathsub] clauses (e.g. 'sync:fail-after@100/wal', 'write:enospc~0.001'); see internal/fsx")
		chaosSeed    = flag.Int64("chaos-seed", 1, "deterministic seed for -chaos rate-based rules")

		shardSpec    = flag.String("shards", "", "shard map for router mode: groups ';'-separated, replica addresses ','-separated (e.g. 'h1:7100,h1b:7100;h2:7100')")
		hedge        = flag.Duration("hedge", 50*time.Millisecond, "hedge a shard to its next replica after this long (router mode; negative disables)")
		shardDial    = flag.Duration("shard-dial", 5*time.Second, "shard connect+handshake timeout (router mode)")
		shardSearch  = flag.Duration("shard-timeout", 10*time.Second, "scatter deadline when a request has no timeout_ms (router mode)")
		probeCooloff = flag.Duration("probe-cooloff", 500*time.Millisecond, "leave a down replica unprobed this long (router mode)")

		clusterAddrs = flag.String("cluster", "", "comma-separated rank addresses for distributed mode; this process is rank 0")
		data         = flag.String("data", "", "dataset fvecs file (distributed mode, unless -resume)")
		resume       = flag.String("resume", "", "serve a checkpoint directory instead of building (distributed mode)")
		limit        = flag.Int("limit", 0, "load at most this many points")
		workerWait   = flag.Duration("worker-wait", 60*time.Second, "worker dial timeout (distributed mode)")
		clusterK     = flag.Int("cluster-k", 10, "neighbors per query the cluster serves (distributed mode)")
		queryTimeout = flag.Duration("query-timeout", 10*time.Second, "per-round failover deadline (distributed mode; 0 = no round deadline; dead workers are still detected)")
		repl         = flag.Int("replication", 1, "replication factor (distributed mode; every worker builds with it, or must have checkpointed it)")

		nprobe  = flag.Int("nprobe", 0, "override partitions searched per query")
		ef      = flag.Int("ef", 0, "override HNSW efSearch (single-process mode)")
		threads = flag.Int("threads", 0, "search threads per batch round (0 = GOMAXPROCS)")

		lexOn   = flag.Bool("lexical", false, "single-process mode: enable hybrid retrieval — upsert points may carry \"text\" (BM25-indexed, WAL-durable with -wal) and POST /v1/hybrid fuses keyword and vector rankings")
		frozen  = flag.Bool("frozen", false, "serve from flat frozen layouts: CSR adjacency over the graph's rows, re-frozen across compactions (single-process mode)")
		sq8     = flag.Bool("sq8", false, "with -frozen: SQ8 quantized first pass + exact re-rank (L2-family metrics)")
		rerankK = flag.Int("rerank-k", 0, "with -sq8: candidates re-ranked at full precision (>0 fixed, 0 = 4*k per query, <0 = exact scoring)")

		maxBatch = flag.Int("max-batch", 64, "max queries coalesced into one search round")
		maxWait  = flag.Duration("max-wait", 2*time.Millisecond, "max time a request waits to be batched")
		queue    = flag.Int("queue", 0, "admission queue depth (0 = 4x max-batch); beyond it requests shed with 429")
		cache    = flag.Int("cache", 4096, "LRU result-cache entries (0 disables)")
		deadline = flag.Duration("deadline", 0, "default per-request deadline when the client sends no timeout_ms (0 = none)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "max time to finish queued work on shutdown")
	)
	flag.Parse()

	single := *index != "" || *walDir != ""
	distributed := *clusterAddrs != ""
	sharded := *shardSpec != ""
	multiTenant := *colRoot != ""
	modes := 0
	for _, on := range []bool{single, distributed, sharded, multiTenant} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		log.Print("exactly one of -index/-wal, -collections, -cluster, or -shards is required")
		flag.Usage()
		os.Exit(2)
	}

	srvCfg := serve.ServerConfig{
		Batcher: serve.BatcherConfig{
			MaxBatch:   *maxBatch,
			MaxWait:    *maxWait,
			QueueDepth: *queue,
		},
		CacheSize:      *cache,
		DefaultTimeout: *deadline,
		Threads:        *threads,
	}

	if multiTenant {
		opts := collection.Options{
			Store: store.Options{
				SyncEvery:    *walSyncEvery,
				SyncInterval: *walSyncInt,
				CompactRatio: *compactRatio,
			},
			Logf: log.Printf,
		}
		if *chaosSpec != "" {
			rules, cerr := fsx.ParseFaults(*chaosSpec)
			if cerr != nil {
				log.Fatal(cerr)
			}
			opts.Store.FS = fsx.NewFaulty(fsx.OS{}, *chaosSeed, rules...)
			log.Printf("CHAOS: injecting storage faults %q (seed %d) — drill mode, not for production", *chaosSpec, *chaosSeed)
		}
		reg, err := collection.Open(*colRoot, opts)
		if err != nil {
			log.Fatal(err)
		}
		if *colInit != "" {
			if err := initCollections(reg, *colInit); err != nil {
				log.Fatal(err)
			}
		}
		names := reg.Names()
		log.Printf("collections root %s: %d collections %v", *colRoot, len(names), names)
		gw, err := serve.NewCollectionServer(reg, srvCfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := runGateway(*addr, gw, *drainFor); err != nil {
			log.Fatal(err)
		}
		// Checkpoint each collection on clean shutdown so the next start
		// replays no WAL, then drain and close the registry.
		for _, name := range reg.Names() {
			if c, err := reg.Get(name); err == nil {
				if err := c.Checkpoint(); err != nil {
					log.Printf("checkpoint %s: %v", name, err)
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := reg.Close(ctx); err != nil {
			log.Printf("registry close: %v", err)
		}
		return
	}

	if single {
		loadIndex := func() (*core.Engine, error) {
			if *index == "" {
				return nil, fmt.Errorf("store %q is uninitialised; the first run needs -index to seed it", *walDir)
			}
			f, err := os.Open(*index)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return core.LoadEngine(f)
		}
		var (
			e   *core.Engine
			d   *store.Durable
			err error
		)
		if *walDir != "" {
			opts := store.Options{
				SyncEvery:    *walSyncEvery,
				SyncInterval: *walSyncInt,
				CompactRatio: *compactRatio,
				Logf:         log.Printf,
			}
			if *lexOn {
				// Default BM25 parameters; the text sidecar and upsert-text
				// WAL records make the lexical index crash-durable.
				opts.Lexical = &lexical.Config{}
			}
			if *chaosSpec != "" {
				rules, cerr := fsx.ParseFaults(*chaosSpec)
				if cerr != nil {
					log.Fatal(cerr)
				}
				// Chaos drills: every store I/O call goes through the fault
				// injector. A tripped fault poisons the WAL and opens the
				// gateway's write breaker exactly as a real disk would.
				opts.FS = fsx.NewFaulty(fsx.OS{}, *chaosSeed, rules...)
				log.Printf("CHAOS: injecting storage faults %q (seed %d) — drill mode, not for production", *chaosSpec, *chaosSeed)
			}
			d, err = store.OpenOrCreate(*walDir, loadIndex, opts)
			if err != nil {
				log.Fatal(err)
			}
			e = d.Engine()
			st := d.Stats()
			log.Printf("store %s: seq %d (snapshot watermark %d, replayed %d), %d WAL segments (%d bytes)",
				*walDir, st.LastSeq, st.Watermark, st.Replayed, st.WALSegments, st.WALDiskBytes)
		} else {
			if e, err = loadIndex(); err != nil {
				log.Fatal(err)
			}
		}
		if *nprobe > 0 {
			e.SetNProbe(*nprobe)
		}
		if *ef > 0 {
			e.SetEfSearch(*ef)
		}
		if *sq8 && !*frozen {
			log.Fatal("-sq8 requires -frozen")
		}
		if *frozen {
			if err := e.Freeze(hnsw.FreezeOptions{SQ8: *sq8, RerankK: *rerankK}); err != nil {
				log.Fatal(err)
			}
			if fi, ok := e.FrozenInfo(); ok {
				log.Printf("frozen: %d partitions, %d points flat, %.1f MiB adjacency+codes, sq8=%v rerank-k=%d",
					fi.Partitions, fi.FrozenLen, float64(fi.ArenaBytes)/(1<<20), fi.Quantized, *rerankK)
			}
		}
		log.Printf("index: %d points, %d partitions, dim %d", e.Len(), e.Partitions(), e.Dim())
		if *lexOn {
			log.Printf("lexical: hybrid retrieval enabled (%d documents indexed)", e.TextCount())
		}
		backend := &serve.EngineBackend{Engine: e, Threads: *threads, Store: d, Lexical: *lexOn}
		if err := serveHTTP(*addr, backend, srvCfg, *drainFor); err != nil {
			log.Fatal(err)
		}
		if d != nil {
			// Checkpoint on clean shutdown so the next start replays no WAL.
			if err := d.Checkpoint(); err != nil {
				log.Printf("final checkpoint: %v", err)
			}
			st := d.Stats()
			log.Printf("store: %d upserts, %d deletes, %d fsyncs, %d compactions (%d dead rows folded)",
				st.Upserts, st.Deletes, st.WALFsyncs, st.Compactions, st.Folded)
			if err := d.Close(); err != nil {
				log.Printf("store close: %v", err)
			}
		}
		return
	}

	if sharded {
		// Router mode: stateless scatter-gather gateway over annworker
		// -serve shards. No data is loaded here; the shards hold it.
		m, err := serve.ParseShardMap(*shardSpec)
		if err != nil {
			log.Fatal(err)
		}
		router, err := serve.NewRouter(m, serve.RouterConfig{
			DialTimeout:   *shardDial,
			SearchTimeout: *shardSearch,
			HedgeDelay:    *hedge,
			ProbeCooloff:  *probeCooloff,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer router.Close()
		log.Printf("routing %d shards, dim %d", router.Shards(), router.Dim())
		if err := serveHTTP(*addr, router, srvCfg, *drainFor); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Distributed: join the cluster as rank 0, build (or resume), then
	// serve HTTP as the master driver until a shutdown signal.
	list := strings.Split(*clusterAddrs, ",")
	if len(list) < 2 {
		log.Fatal("-cluster needs at least a master and one worker address")
	}
	if *data == "" && *resume == "" {
		log.Fatal("distributed mode needs -data or -resume")
	}
	cfg := core.DefaultConfig(len(list) - 1)
	cfg.K = *clusterK
	cfg.NProbe = *nprobe
	cfg.Replication = *repl
	cfg.QueryTimeout = *queryTimeout
	if *nprobe <= 0 {
		cfg.NProbe = 2
	}
	node, comm, err := cluster.JoinTCPOpts(0, list, cluster.TCPOptions{DialTimeout: *workerWait})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	driver := func(m *core.Master) error {
		log.Printf("cluster up: %d workers, dim %d, k=%d", len(list)-1, m.Dim(), m.K())
		return serveHTTP(*addr, &serve.MasterBackend{Master: m}, srvCfg, *drainFor)
	}
	if *resume != "" {
		err = core.RunClusterFromCheckpoint(comm, *resume, cfg, driver)
	} else {
		ds, lerr := dataset.LoadFvecsFile(*data, *limit)
		if lerr != nil {
			log.Fatal(lerr)
		}
		err = core.RunCluster(comm, ds, cfg, driver)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// initCollections creates any collection listed in the init file that
// does not exist yet; existing ones are left untouched (their on-disk
// config wins, so an edited init file cannot silently reconfigure a
// collection holding data).
func initCollections(reg *collection.Registry, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var specs []struct {
		Name string `json:"name"`
		collection.Config
	}
	if err := json.Unmarshal(b, &specs); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, sp := range specs {
		_, err := reg.Create(sp.Name, sp.Config)
		switch {
		case err == nil:
			log.Printf("created collection %q (dim %d)", sp.Name, sp.Dim)
		case errors.Is(err, collection.ErrExists):
			// already there: recovered from disk by Open
		default:
			return fmt.Errorf("creating collection %q: %w", sp.Name, err)
		}
	}
	return nil
}

// serveHTTP runs a single-backend gateway until SIGTERM/SIGINT, then
// drains: stop accepting connections, finish queued searches, exit.
func serveHTTP(addr string, backend serve.Backend, cfg serve.ServerConfig, drainFor time.Duration) error {
	return runGateway(addr, serve.NewServer(backend, cfg), drainFor)
}

// runGateway runs an already-wired gateway with signal-driven drain.
func runGateway(addr string, gw *serve.Server, drainFor time.Duration) error {
	hs := &http.Server{Addr: addr, Handler: gw.Handler()}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", addr)
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		log.Printf("%v: draining (up to %v)", sig, drainFor)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainFor)
	defer cancel()
	// Stop accepting and let in-flight handlers deliver their
	// submissions, then drain the batcher's queue.
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := gw.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	snap := gw.Stats().Snapshot()
	log.Printf("drained: served %d queries in %d batches (mean batch %.1f), shed %d, cache hits %d",
		snap.Queries, snap.Batches, snap.MeanBatchSize, snap.Shed, snap.CacheHits)
	return <-errCh
}
