package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/hnsw"
	"repro/internal/lexical"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/topk"
	"repro/internal/vec"
	"repro/internal/vptree"
)

// Probes of the layers a read-only replay cannot reach: construction,
// insertion, the WAL, the shard RPC and the collection quota run on
// scratch fixtures built from the same corpus, so they cannot disturb
// the topology under test; the kernels run as microloops.

const scratchPoints = 2000

// buildProbes times partitioning, a single-threaded graph build over one
// real partition, and inserts into that graph.
func (p *prober) buildProbes() error {
	t0 := time.Now()
	res, err := vptree.BuildPartitions(p.c.ds, partitions, vptree.PartitionConfig{Metric: vec.L2, Seed: corpusSeed})
	if err != nil {
		return err
	}
	p.rep.add("vptree.build.s", "s", time.Since(t0).Seconds())

	part := res.Partitions[0]
	cfg := hnsw.DefaultConfig(vec.L2)
	cfg.Seed = corpusSeed
	t0 = time.Now()
	g, _, err := hnsw.Build(part, cfg, 1)
	if err != nil {
		return err
	}
	p.rep.add("hnsw.build.points_per_s", "1/s", float64(part.Len())/time.Since(t0).Seconds())

	rng := rand.New(rand.NewSource(p.c.seed + 17))
	if err := p.t.replay(traceOps, p.t.span1("hnsw.insert", "", func(op int) (map[string]int64, error) {
		st, err := g.Add(p.c.newPointVector(rng, nil), int64(1<<24+op))
		return map[string]int64{"dist": st.DistComps}, err
	})); err != nil {
		return err
	}
	p.rep.add("hnsw.insert.us_per_add", "us", p.t.medianUS("hnsw.insert"))
	p.rep.add("hnsw.insert.dist_per_add", "count", p.t.meanCount("hnsw.insert", "dist"))
	return nil
}

// scratchEngine is a small engine over the head of the corpus.
func (p *prober) scratchEngine() (*core.Engine, error) {
	cfg := core.DefaultConfig(2)
	cfg.Seed = corpusSeed
	return core.NewEngine(p.c.ds.Slice(0, min(scratchPoints, p.c.ds.Len())), cfg)
}

// storeProbe prices the WAL. Two scratch engines are built alike; one
// goes behind a store with the WAL defaults. The same points are then
// upserted through the store and added to the bare twin, whose graphs
// grow identically, so the paired difference is the store's own cost.
// Last, the store is recovered from disk.
func (p *prober) storeProbe(outDir string) error {
	eng, err := p.scratchEngine()
	if err != nil {
		return err
	}
	twin, err := p.scratchEngine()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	d, err := store.Create(filepath.Join(dir, "data"), eng, store.Options{})
	if err != nil {
		return err
	}
	p.rep.add("store.create.s", "s", time.Since(t0).Seconds())

	const upserts = 4 * traceOps
	rng := rand.New(rand.NewSource(p.c.seed + 19))
	for op := 0; op < upserts; op++ {
		v, id := p.c.newPointVector(rng, nil), int64(1<<24+op)
		if err := p.t.record(op, "store.upsert", "", func() (map[string]int64, error) {
			return nil, d.Upsert(v, id)
		}); err != nil {
			d.Close()
			return err
		}
		if err := p.t.record(op, "engine.add", "store.upsert", func() (map[string]int64, error) {
			return nil, twin.Add(v, id)
		}); err != nil {
			d.Close()
			return err
		}
	}
	st := d.Stats()
	if err := d.Close(); err != nil {
		return err
	}
	p.rep.add("store.upsert.us_per_point", "us", p.t.medianUS("store.upsert"))
	p.rep.add("store.wal.self_us_per_point", "us", p.t.selfUS("store.upsert", "engine.add"))
	p.rep.add("store.wal.bytes_per_point", "B", float64(st.WALBytes)/float64(st.Upserts))
	p.rep.add("store.wal.fsyncs_per_1k_ops", "count", 1000*float64(st.WALFsyncs)/float64(st.Upserts))
	p.rep.add("store.wal.fsync_p50_us", "us", st.FsyncUS.P50)

	t0 = time.Now()
	d, err = store.Open(filepath.Join(dir, "data"), store.Options{})
	if err != nil {
		return err
	}
	p.rep.add("store.reopen.s", "s", time.Since(t0).Seconds())
	if got, want := d.Engine().Len(), twin.Len(); got != want {
		d.Close()
		return fmt.Errorf("scratch store recovered %d points, want %d", got, want)
	}
	return d.Close()
}

// clusterProbe sends 64-query frames to a loopback ShardServer through a
// ShardClient and through a one-shard Router. The shard answers from a
// table, so the spans hold the RPC's and the router's own cost (frame
// encode and decode, loopback, merge) and no search.
func (p *prober) clusterProbe() error {
	canned := make([][]topk.Result, batchQueries)
	for i := range canned {
		for j := 0; j < topK; j++ {
			canned[i] = append(canned[i], topk.Result{ID: int64(i*topK + j), Dist: float32(j)})
		}
	}
	handler := func(_ context.Context, queries *vec.Dataset, _ int) ([][]topk.Result, error) {
		return canned[:queries.Len()], nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := cluster.NewShardServer(ln, cluster.ShardInfo{Dim: dim, Points: int64(p.c.ds.Len())}, handler)
	defer srv.Close()
	cl, err := cluster.DialShard(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	router, err := serve.NewRouter(serve.ShardMap{Groups: [][]string{{srv.Addr()}}}, serve.RouterConfig{})
	if err != nil {
		return err
	}
	defer router.Close()

	ctx := context.Background()
	for op := 0; op < traceOps; op++ {
		r := op % traceBatches
		qs := p.fresh.Slice(r*batchQueries, (r+1)*batchQueries)
		if err := p.t.record(op, "router.batch", "", func() (map[string]int64, error) {
			out, err := router.SearchBatch(ctx, qs, topK)
			if err == nil && out.Degraded {
				err = fmt.Errorf("degraded answer from a healthy loopback shard")
			}
			return nil, err
		}); err != nil {
			return err
		}
		if err := p.t.record(op, "shardrpc.search", "router.batch", func() (map[string]int64, error) {
			_, err := cl.Search(ctx, qs, topK)
			return nil, err
		}); err != nil {
			return err
		}
	}
	p.rep.add("cluster.shardrpc.roundtrip_us", "us", p.t.medianUS("shardrpc.search"))
	p.rep.add("serve.router.scatter_self_us", "us", p.t.selfUS("router.batch", "shardrpc.search"))
	return nil
}

// perCall times n calls of f and returns nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// collectionProbe prices the admission quota: Collection.Search is
// Acquire, Engine.Search, Release, so the pair is its self time.
func (p *prober) collectionProbe(outDir string) error {
	dir, err := os.MkdirTemp(outDir, "probe-collections-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg, err := collection.Open(dir, collection.Options{})
	if err != nil {
		return err
	}
	defer reg.Close(context.Background())
	col, err := reg.Create("probe", collection.Config{Dim: dim, MaxInflight: 64})
	if err != nil {
		return err
	}
	var fail error
	ns := perCall(1<<18, func(int) {
		if err := col.Acquire(); err != nil {
			fail = err
			return
		}
		col.Release()
	})
	p.rep.add("collection.search.self_ns", "ns", ns)
	return fail
}

var (
	sinkF32 float32
	sinkU32 uint32
	sinkInt int
)

// kernelProbes times the innermost loops on corpus data.
func (p *prober) kernelProbes() error {
	ds := p.c.ds
	n := ds.Len()
	const calls = 1 << 18
	q := p.fresh.At(0)
	p.rep.add("vec.l2_f32.ns_per_call", "ns", perCall(calls, func(i int) {
		sinkF32 += vec.SquaredL2Distance(q, ds.At(i%n))
	}))

	codec, err := vec.TrainSQ8(ds)
	if err != nil {
		return err
	}
	codes, err := codec.EncodeAll(ds)
	if err != nil {
		return err
	}
	qc := make([]uint8, dim)
	if err := codec.Encode(q, qc); err != nil {
		return err
	}
	p.rep.add("vec.l2_u8.ns_per_call", "ns", perCall(calls, func(i int) {
		j := (i % n) * dim
		sinkU32 += vec.SquaredL2Bytes(qc, codes[j:j+dim])
	}))

	// Two sorted lists of k results, as the engine merges per query.
	rng := rand.New(rand.NewSource(p.c.seed + 23))
	lists := make([][]topk.Result, 2)
	for l := range lists {
		for j := 0; j < topK; j++ {
			lists[l] = append(lists[l], topk.Result{ID: int64(l*topK + j), Dist: rng.Float32()})
		}
		topk.SortResults(lists[l])
	}
	p.rep.add("topk.merge.ns_per_call", "ns", perCall(1<<16, func(int) {
		sinkInt += len(topk.Merge(topK, lists...))
	}))

	p.rep.add("filter.parse.ns_per_call", "ns", perCall(1<<16, func(int) {
		f, _ := filter.Parse(filter01)
		if f.Empty() {
			sinkInt++
		}
	}))
	f := filter.MustParse(filter01)
	tags := []map[string]string{tagsFor(0), tagsFor(1)}
	p.rep.add("filter.match.ns_per_call", "ns", perCall(calls, func(i int) {
		if f.Matches(tags[i&1]) {
			sinkInt++
		}
	}))

	tokens := 0
	total := perCall(1<<14, func(i int) {
		tokens += len(lexical.Tokenize(p.c.texts[i%len(p.c.texts)]))
	}) * (1 << 14)
	p.rep.add("lexical.tokenize.ns_per_token", "ns", total/float64(tokens))
	return nil
}
