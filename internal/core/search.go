package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/hnsw"
	"repro/internal/metrics"
	"repro/internal/topk"
	"repro/internal/vec"
	"repro/internal/vptree"
)

// Distributed runs the paper's engine on a cluster.Comm with rank 0 as
// the master and ranks 1..P as workers (one partition per worker, plus
// replicas when Replication > 1).
type Distributed struct {
	comm *cluster.Comm
	cfg  Config
	dim  int

	// master state
	tree   *vptree.PartitionTree
	cons   ConstructStats // aggregated (max over workers per phase)
	builtB *Built         // worker state

	// batch protocol state (master only, driver goroutine only)
	seq     uint32 // monotonic batch-round sequence number
	lagging []bool // by rank: missed a round deadline and owes a Done
}

// nextSeq issues the next batch-round sequence number (master only).
func (d *Distributed) nextSeq() uint32 {
	d.seq++
	return d.seq
}

// RunCluster is the lifecycle entry point: every rank of c calls it.
// Rank 0 sends every worker the join (see joinMsg), scatters ds, waits
// for the distributed build, then runs driver with a Master handle; the
// other ranks build as the join says and serve as workers until the
// driver returns. ds and the driver are only consulted on rank 0, and a
// worker takes only ThreadsPerWorker and Trace from its own cfg.
func RunCluster(c *cluster.Comm, ds *vec.Dataset, cfg Config, driver func(*Master) error) error {
	return runCluster(c, ds, "", cfg, driver)
}

// runCluster is the lifecycle both RunCluster and
// RunClusterFromCheckpoint run: the join, then a build from ds or a load
// from the resume directory, whichever rank 0 asked for, then serve.
func runCluster(c *cluster.Comm, ds *vec.Dataset, resume string, cfg Config, driver func(*Master) error) error {
	if c.Size() < 2 {
		return fmt.Errorf("core: need at least 1 master + 1 worker, got %d ranks", c.Size())
	}
	cfg.Partitions = c.Size() - 1
	d, err := startCluster(c, ds, resume, cfg)
	if err != nil {
		if c.Rank() == 0 {
			// Workers that got this far must not wait forever for a
			// batch (or, before the join, for the join).
			_ = sendShutdown(c)
		}
		return err
	}
	return d.serve(driver)
}

// joinMsg is rank 0's word on what every worker builds or loads, the
// first message of a RunCluster or RunClusterFromCheckpoint run. The
// paper's MPI ranks share one argv; the processes of a TCP deployment do
// not, so every setting the ranks must agree on travels from rank 0
// here instead of coming from each worker's own Config.
type joinMsg struct {
	Dim           int    // dataset dimension; 0 when resuming (the checkpoint holds it)
	Resume        string // checkpoint directory to load; "" = build
	Replication   int
	Seed          int64
	Metric        vec.Metric
	HNSW          hnsw.Config
	CheckpointDir string
}

// config is the Config a worker runs with: rank 0's settings, plus the
// worker's own ThreadsPerWorker and Trace.
func (j joinMsg) config(own Config) Config {
	return Config{
		Partitions:       own.Partitions,
		Replication:      j.Replication,
		Seed:             j.Seed,
		Metric:           j.Metric,
		HNSW:             j.HNSW,
		CheckpointDir:    j.CheckpointDir,
		ThreadsPerWorker: own.ThreadsPerWorker,
		Trace:            own.Trace,
	}
}

// startCluster runs the join and then builds or loads this rank's share
// of the cluster. Rank 0 sends the join before it loads anything, point
// to point to each live worker, so a worker that is already down is
// skipped rather than failing the run; a worker waits for it from rank 0
// alone, so a dead master ends the wait.
func startCluster(c *cluster.Comm, ds *vec.Dataset, resume string, cfg Config) (*Distributed, error) {
	var j joinMsg
	if c.Rank() == 0 {
		dim := 0
		if resume == "" {
			if ds == nil || ds.Len() < cfg.Partitions {
				return nil, fmt.Errorf("core: master needs a dataset with at least %d points", cfg.Partitions)
			}
			dim = ds.Dim
		}
		if err := cfg.fill(dim); err != nil {
			return nil, err
		}
		j = joinMsg{
			Dim: dim, Resume: resume, Replication: cfg.Replication, Seed: cfg.Seed,
			Metric: cfg.Metric, HNSW: cfg.HNSW, CheckpointDir: cfg.CheckpointDir,
		}
		raw, err := json.Marshal(j)
		if err != nil {
			return nil, err
		}
		if err := sendLive(c, tagJoin, raw); err != nil {
			return nil, err
		}
	} else {
		raw, st, err := c.RecvTags(0, tagJoin, tagHeader)
		if err != nil {
			return nil, err
		}
		if st.Tag == tagHeader {
			return nil, errors.New("core: rank 0 shut the cluster down before the join")
		}
		if err := json.Unmarshal(raw, &j); err != nil {
			return nil, fmt.Errorf("core: malformed join message: %w", err)
		}
		cfg = j.config(cfg)
		if err := cfg.fill(j.Dim); err != nil {
			return nil, err
		}
	}
	if j.Resume != "" {
		return loadCluster(c, j.Resume, cfg)
	}
	return buildCluster(c, ds, j.Dim, cfg)
}

// serve is the lifecycle every cluster entry point ends in: rank 0 runs
// driver and then shuts the workers down; the other ranks serve batches
// until that shutdown.
func (d *Distributed) serve(driver func(*Master) error) error {
	if d.comm.Rank() != 0 {
		return d.workerLoop()
	}
	err := driver(&Master{d: d})
	if serr := sendShutdown(d.comm); serr != nil && err == nil {
		err = serr
	}
	return err
}

// buildCluster distributes the dataset and builds the index structures.
func buildCluster(c *cluster.Comm, ds *vec.Dataset, dim int, cfg Config) (*Distributed, error) {
	d := &Distributed{comm: c, cfg: cfg, dim: dim}

	// Master scatters shards to the workers (equi-partitioning).
	if c.Rank() == 0 {
		chunks := make([][]byte, c.Size())
		n := ds.Len()
		p := cfg.Partitions
		for w := 0; w < p; w++ {
			lo, hi := n*w/p, n*(w+1)/p
			var buf bytes.Buffer
			if err := ds.Slice(lo, hi).WriteBinary(&buf); err != nil {
				return nil, err
			}
			chunks[w+1] = buf.Bytes()
		}
		chunks[0] = nil
		if _, err := c.Scatterv(0, chunks); err != nil {
			return nil, err
		}
	} else {
		raw, err := c.Scatterv(0, nil)
		if err != nil {
			return nil, err
		}
		shard, err := vec.ReadBinary(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		// Workers build on their own sub-communicator.
		workers, err := c.Split(1, c.Rank())
		if err != nil {
			return nil, err
		}
		b, err := BuildDistributed(workers, shard, d.cfg)
		if err != nil {
			return nil, err
		}
		if d.cfg.CheckpointDir != "" {
			if err := b.SaveCheckpoint(d.cfg.CheckpointDir); err != nil {
				return nil, err
			}
		}
		d.builtB = b
		// Ship the routing tree and the construction stats to the master.
		if workers.Rank() == 0 {
			var buf bytes.Buffer
			if err := b.Tree.Encode(&buf); err != nil {
				return nil, err
			}
			if err := c.Send(0, tagTree, buf.Bytes()); err != nil {
				return nil, err
			}
		}
		if err := c.Send(0, tagDone, encodeConsStats(b.Stats)); err != nil {
			return nil, err
		}
		return d, nil
	}
	// master side: split too (color 0, alone), then receive tree+stats
	if _, err := c.Split(0, 0); err != nil {
		return nil, err
	}
	raw, _, err := c.Recv(1, tagTree)
	if err != nil {
		return nil, err
	}
	tree, err := vptree.ReadPartitionTree(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	d.tree = tree
	for w := 1; w < c.Size(); w++ {
		p, _, err := c.Recv(w, tagDone)
		if err != nil {
			return nil, err
		}
		st, err := decodeConsStats(p)
		if err != nil {
			return nil, err
		}
		d.cons = maxConsStats(d.cons, st)
	}
	return d, nil
}

func encodeConsStats(s ConstructStats) []byte {
	buf := make([]byte, 48)
	putUint64(buf[0:], uint64(s.VPTree))
	putUint64(buf[8:], uint64(s.HNSW))
	putUint64(buf[16:], uint64(s.Replicate))
	putUint64(buf[24:], uint64(s.DistComps))
	putUint64(buf[32:], uint64(s.HNSWWork.DistComps))
	putUint64(buf[40:], uint64(s.HNSWWork.Hops))
	return buf
}

func decodeConsStats(b []byte) (ConstructStats, error) {
	if len(b) != 48 {
		return ConstructStats{}, fmt.Errorf("core: malformed stats message")
	}
	return ConstructStats{
		VPTree:    time.Duration(getUint64(b[0:])),
		HNSW:      time.Duration(getUint64(b[8:])),
		Replicate: time.Duration(getUint64(b[16:])),
		DistComps: int64(getUint64(b[24:])),
		HNSWWork:  hnsw.Stats{DistComps: int64(getUint64(b[32:])), Hops: int64(getUint64(b[40:]))},
	}, nil
}

func maxConsStats(a, b ConstructStats) ConstructStats {
	out := a
	if b.VPTree > out.VPTree {
		out.VPTree = b.VPTree
	}
	if b.HNSW > out.HNSW {
		out.HNSW = b.HNSW
	}
	if b.Replicate > out.Replicate {
		out.Replicate = b.Replicate
	}
	out.DistComps += b.DistComps
	out.HNSWWork = out.HNSWWork.Add(b.HNSWWork)
	return out
}

// batch header exchanged before every search batch (master -> each
// worker individually, so retry rounds can address a subset and dead
// ranks can be skipped). Seq names the round; workers echo it in every
// result and Done so the master can tell fresh traffic from stale.
type batchHeader struct {
	Seq      uint32
	NQueries uint32
	K        uint16
	OneSided bool
	Shutdown bool
}

func encodeHeader(h batchHeader) []byte {
	buf := make([]byte, 12)
	binary.LittleEndian.PutUint32(buf[0:], h.Seq)
	binary.LittleEndian.PutUint32(buf[4:], h.NQueries)
	binary.LittleEndian.PutUint16(buf[8:], h.K)
	if h.OneSided {
		buf[10] = 1
	}
	if h.Shutdown {
		buf[11] = 1
	}
	return buf
}

func decodeHeader(b []byte) batchHeader {
	return batchHeader{
		Seq:      binary.LittleEndian.Uint32(b[0:]),
		NQueries: binary.LittleEndian.Uint32(b[4:]),
		K:        binary.LittleEndian.Uint16(b[8:]),
		OneSided: b[10] == 1,
		Shutdown: b[11] == 1,
	}
}

// Master is the rank-0 handle passed to the RunCluster driver.
type Master struct {
	d *Distributed
}

// Tree exposes the routing tree (for inspection and tests).
func (m *Master) Tree() *vptree.PartitionTree { return m.d.tree }

// Dim returns the vector dimensionality the cluster was built with.
func (m *Master) Dim() int { return m.d.dim }

// K returns the per-query neighbor count the cluster serves (fixed at
// build time by Config.K; the serving gateway trims to smaller ks).
func (m *Master) K() int { return m.d.cfg.K }

// ConstructionStats returns the aggregated build-phase timings (Table II
// reports the max across ranks per phase).
func (m *Master) ConstructionStats() ConstructStats { return m.d.cons }

// BatchResult is the outcome of one batched search.
type BatchResult struct {
	Results [][]topk.Result // per query, ascending distance
	Elapsed time.Duration
	// PerWorkerQueries is the number of (query, partition) tasks each
	// worker processed — the Figure 4(b) distribution.
	PerWorkerQueries []int64
	// PerWorkerDistComps and PerWorkerHops give each worker's search
	// work; the cost model prices them into modelled per-core busy time.
	PerWorkerDistComps []int64
	PerWorkerHops      []int64
	// Dispatched is the total number of routed (query, partition) pairs.
	Dispatched int64
	// RouteNodes is the number of VP-tree nodes the master evaluated
	// while routing (its serial compute load in the cost model).
	RouteNodes int64
	Work       WorkStats
	Breakdown  metrics.Breakdown

	// Degraded reports that some (query, partition) tasks were lost to
	// worker failures and could not be recovered from a replica within
	// the retry budget; Results are still valid but may miss neighbors
	// from the listed partitions.
	Degraded bool
	// FailedPartitions lists the partitions whose tasks were abandoned
	// (deduplicated, ascending).
	FailedPartitions []int
	// Failovers counts tasks rerouted to a replica worker this batch.
	Failovers int64
	// Retries counts the retry rounds this batch needed.
	Retries int
}

// Search answers a batch of queries with the configured routing mode.
func (m *Master) Search(queries *vec.Dataset) (*BatchResult, error) {
	if queries.Dim != m.d.dim {
		return nil, fmt.Errorf("core: query dim %d, index dim %d", queries.Dim, m.d.dim)
	}
	if m.d.cfg.Routing == RouteAdaptive {
		return m.searchAdaptive(queries)
	}
	np := m.d.cfg.NProbe
	var visits int64
	res, err := m.searchBatch(queries, func(_ int, q []float32) []vptree.Route {
		rs, v := m.d.tree.RouteTopStats(q, np)
		visits += int64(v)
		return rs
	})
	if res != nil {
		res.RouteNodes = visits
	}
	return res, err
}

// searchAdaptive runs two rounds: home partitions first, then the
// partitions intersecting the ball of the current k-th distance.
func (m *Master) searchAdaptive(queries *vec.Dataset) (*BatchResult, error) {
	t0 := time.Now()
	first, err := m.searchBatch(queries, func(_ int, q []float32) []vptree.Route {
		return []vptree.Route{{Partition: m.d.tree.Home(q), LowerBound: 0}}
	})
	if err != nil {
		return nil, err
	}
	// Round two: widen each query to the ball of its current k-th
	// distance, skipping the already-searched home partition.
	second, err := m.searchBatch(queries, func(qi int, q []float32) []vptree.Route {
		res := first.Results[qi]
		if len(res) == 0 {
			return m.d.tree.RouteAll(q)[1:] // no local results: widen fully
		}
		tau := res[len(res)-1].Dist
		home := m.d.tree.Home(q)
		routes := m.d.tree.RouteBall(q, tau)
		out := routes[:0]
		for _, r := range routes {
			if r.Partition != home {
				out = append(out, r)
			}
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	merged := make([][]topk.Result, queries.Len())
	for i := range merged {
		merged[i] = topk.Merge(m.d.cfg.K, first.Results[i], second.Results[i])
	}
	out := &BatchResult{
		Results:            merged,
		Elapsed:            time.Since(t0),
		PerWorkerQueries:   make([]int64, len(first.PerWorkerQueries)),
		PerWorkerDistComps: make([]int64, len(first.PerWorkerQueries)),
		PerWorkerHops:      make([]int64, len(first.PerWorkerQueries)),
		Dispatched:         first.Dispatched + second.Dispatched,
		Work:               first.Work.Add(second.Work),
		Breakdown:          first.Breakdown.Add(second.Breakdown),
		Degraded:           first.Degraded || second.Degraded,
		FailedPartitions:   UnionPartitions(first.FailedPartitions, second.FailedPartitions),
		Failovers:          first.Failovers + second.Failovers,
		Retries:            first.Retries + second.Retries,
	}
	for i := range out.PerWorkerQueries {
		out.PerWorkerQueries[i] = first.PerWorkerQueries[i] + second.PerWorkerQueries[i]
		out.PerWorkerDistComps[i] = first.PerWorkerDistComps[i] + second.PerWorkerDistComps[i]
		out.PerWorkerHops[i] = first.PerWorkerHops[i] + second.PerWorkerHops[i]
	}
	return out, nil
}

// sendShutdown delivers the Shutdown header to every worker still alive.
func sendShutdown(c *cluster.Comm) error {
	return sendLive(c, tagHeader, encodeHeader(batchHeader{Shutdown: true}))
}

// sendLive sends payload to every worker still alive. Dead workers are
// skipped and races with death are tolerated: neither the join nor a
// shutdown may fail the run over a rank that is already gone.
func sendLive(c *cluster.Comm, tag int, payload []byte) error {
	var firstErr error
	for w := 1; w < c.Size(); w++ {
		if c.IsDown(w) {
			continue
		}
		if err := c.Send(w, tag, payload); err != nil && !errors.Is(err, cluster.ErrPeerDown) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// workerLoop is Algorithm 4: serve batches until shutdown. The header
// receive fails fast (ErrPeerDown) if the master dies, so workers do not
// outlive a crashed master.
func (d *Distributed) workerLoop() error {
	c := d.comm
	for {
		raw, _, err := c.RecvTags(0, tagHeader)
		if err != nil {
			// Master gone while we are idle between batches: no more
			// work will ever arrive, so treat it like a shutdown. The
			// master's shutdown frame and its connection close can
			// also race on distinct conns, making this path reachable
			// even on a clean exit.
			if errors.Is(err, cluster.ErrPeerDown) {
				return nil
			}
			return err
		}
		hdr := decodeHeader(raw)
		if hdr.Shutdown {
			return nil
		}
		if err := d.serveBatch(hdr); err != nil {
			return err
		}
	}
}

// serveBatch spawns ThreadsPerWorker searcher goroutines (the OpenMP
// threads of the paper) that poll for query messages, perform local HNSW
// searches and deliver results one-sided or two-sided, terminating on
// the End-of-Queries command.
func (d *Distributed) serveBatch(hdr batchHeader) error {
	c := d.comm
	var win *cluster.Window
	if hdr.OneSided {
		var err error
		win, err = cluster.NewWindow(c, 0, int(hdr.NQueries), mergeResultSlot(int(hdr.K)))
		if err != nil {
			return err
		}
	}
	var processed, accumulates atomic.Int64
	var dc, hops atomic.Int64
	var eoqSeen atomic.Bool
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for t := 0; t < d.cfg.ThreadsPerWorker; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Wait for either a query or the End-of-Queries command.
				// Per-pair FIFO guarantees every query from the master
				// is already ahead of EOQ in the mailbox, so receiving
				// EOQ means this thread has no work left; it re-posts
				// EOQ for its sibling threads (poison-pill cascade) and
				// exits — the message-passing form of Algorithm 4's
				// shared Done flag. Watching rank 0 makes the wait fail
				// fast instead of hanging if the master dies mid-batch.
				pay, st, err := c.RecvTagsWatch(cluster.Any, 0, []int{0}, tagQuery, tagEOQ)
				if err != nil {
					fail(err)
					return
				}
				if st.Tag == tagEOQ {
					eoqSeen.Store(true)
					if err := c.Send(c.Rank(), tagEOQ, nil); err != nil {
						fail(err)
					}
					return
				}
				qm, err := decodeQuery(pay)
				if err != nil {
					fail(err)
					return
				}
				g := d.builtB.Replicas[int(qm.Partition)]
				if g == nil {
					fail(fmt.Errorf("core: worker %d asked for partition %d it does not host", c.Rank(), qm.Partition))
					return
				}
				rs, hst, err := g.SearchFiltered(qm.Vec, int(qm.K), nil, nil)
				if err != nil {
					fail(err)
					return
				}
				d.cfg.Trace.Emitf(c.Rank(), "task", "q%d partition %d (%d dists)", qm.QueryID, qm.Partition, hst.DistComps)
				processed.Add(1)
				dc.Add(hst.DistComps)
				hops.Add(hst.Hops)
				out := encodeResult(resultMsg{
					QueryID:   qm.QueryID,
					Partition: qm.Partition,
					Seq:       hdr.Seq,
					DistComps: hst.DistComps,
					Results:   rs,
				})
				if hdr.OneSided {
					if err := win.Accumulate(int(qm.QueryID), out); err != nil {
						fail(err)
						return
					}
					accumulates.Add(1)
				} else {
					if err := c.Send(0, tagResult, out); err != nil {
						fail(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Drain leftovers so the next batch starts clean. If every thread
	// died on an internal error before consuming EOQ, the master's
	// queries for this round (and its EOQ) may still be queued or in
	// flight; consume up to the EOQ (bounded, in case the master died
	// too) so stale queries cannot leak into the next batch's threads.
	if !eoqSeen.Load() && firstErr != nil &&
		!errors.Is(firstErr, cluster.ErrPeerDown) && !errors.Is(firstErr, cluster.ErrClosed) {
		for {
			_, st, err := c.RecvTagsWatch(cluster.Any, 2*time.Second, []int{0}, tagQuery, tagEOQ)
			if err != nil || st.Tag == tagEOQ {
				break
			}
		}
	}
	// The cascade leaves exactly one re-posted EOQ behind; drain any
	// queued EOQ leftovers. (The master never starts this worker on a new
	// round before our Done below, so these can only be this round's.)
	for {
		if _, _, ok, err := c.TryRecv(cluster.Any, tagEOQ); err != nil || !ok {
			break
		}
	}
	// Report Done even after an internal error: it closes the round for
	// the master, and a count short of what was sent tells it tasks were
	// lost, so a failing worker degrades results instead of deadlocking
	// the batch.
	d.cfg.Trace.Emitf(c.Rank(), "done", "%d tasks processed", processed.Load())
	if err := c.Send(0, tagDone, encodeDone(workerDone{
		Seq:         hdr.Seq,
		Processed:   processed.Load(),
		Accumulates: accumulates.Load(),
		DistComps:   dc.Load(),
		Hops:        hops.Load(),
	})); err != nil && firstErr == nil {
		firstErr = err
	}
	if hdr.OneSided {
		if err := win.Free(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
