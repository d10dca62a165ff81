package core

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/hnsw"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/topk"
	"repro/internal/trace"
	"repro/internal/vec"
)

func clustered(t testing.TB, n, dim, clusters int, seed int64) *vec.Dataset {
	t.Helper()
	g, err := dataset.GenerateClusters(dataset.ClusterConfig{
		N: n, Dim: dim, Clusters: clusters, Outliers: n / 100, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g.Data
}

func truthIDs(ds, qs *vec.Dataset, k int) [][]int32 {
	return bruteforce.GroundTruth(ds, qs, k, vec.L2)
}

// --- wire format ---

func TestQueryMsgRoundtrip(t *testing.T) {
	m := queryMsg{QueryID: 7, Partition: 3, K: 10, Vec: []float32{1.5, -2, 0}}
	got, err := decodeQuery(encodeQuery(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.QueryID != 7 || got.Partition != 3 || got.K != 10 || len(got.Vec) != 3 || got.Vec[1] != -2 {
		t.Fatalf("%+v", got)
	}
	if _, err := decodeQuery([]byte{1, 2}); err == nil {
		t.Error("want error for short query")
	}
	if _, err := decodeQuery(make([]byte, 13)); err == nil {
		t.Error("want error for misaligned query")
	}
}

func TestResultMsgRoundtrip(t *testing.T) {
	m := resultMsg{QueryID: 9, Partition: 2, DistComps: 123,
		Results: []topk.Result{{ID: 5, Dist: 1.25}, {ID: 9, Dist: 2}}}
	got, err := decodeResult(encodeResult(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.QueryID != 9 || got.DistComps != 123 || len(got.Results) != 2 || got.Results[0] != m.Results[0] {
		t.Fatalf("%+v", got)
	}
	if _, err := decodeResult([]byte{1}); err == nil {
		t.Error("want error for short result")
	}
	bad := encodeResult(m)
	if _, err := decodeResult(bad[:len(bad)-1]); err == nil {
		t.Error("want error for truncated result")
	}
}

func TestDoneMsgRoundtrip(t *testing.T) {
	d := workerDone{Processed: 1, Accumulates: 2, DistComps: 3, Hops: 4}
	got, err := decodeDone(encodeDone(d))
	if err != nil || got != d {
		t.Fatalf("%+v %v", got, err)
	}
	if _, err := decodeDone([]byte{1}); err == nil {
		t.Error("want error")
	}
}

func TestMergeResultSlot(t *testing.T) {
	merge := mergeResultSlot(2)
	a := encodeResult(resultMsg{QueryID: 1, Results: []topk.Result{{ID: 1, Dist: 3}, {ID: 2, Dist: 1}, {ID: 3, Dist: 9}}})
	cur := merge(nil, a)
	rm, _ := decodeResult(cur)
	if len(rm.Results) != 2 {
		t.Fatalf("first merge kept %d", len(rm.Results))
	}
	b := encodeResult(resultMsg{QueryID: 1, Results: []topk.Result{{ID: 9, Dist: 0.5}}})
	cur = merge(cur, b)
	rm, _ = decodeResult(cur)
	if len(rm.Results) != 2 || rm.Results[0].ID != 9 || rm.Results[1].ID != 2 {
		t.Fatalf("merged: %+v", rm.Results)
	}
	// garbage update leaves current untouched
	if out := merge(cur, []byte{1, 2, 3}); !bytes.Equal(out, cur) {
		t.Error("garbage update changed slot")
	}
}

// --- config ---

func TestConfigFill(t *testing.T) {
	cfg := Config{Partitions: 4, NProbe: 99, Replication: 99}
	if err := cfg.fill(8); err != nil {
		t.Fatal(err)
	}
	if cfg.K != 10 || cfg.NProbe != 4 || cfg.Replication != 4 || cfg.ThreadsPerWorker != 1 {
		t.Fatalf("%+v", cfg)
	}
	bad := Config{}
	if err := bad.fill(8); err == nil {
		t.Error("want error for 0 partitions")
	}
}

// --- single-process engine ---

func TestEngineRecallAndExactness(t *testing.T) {
	ds := clustered(t, 4000, 32, 8, 1)
	cfg := DefaultConfig(8)
	cfg.NProbe = 3
	e, err := NewEngine(ds.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != ds.Len() || e.Partitions() != 8 || e.Dim() != 32 {
		t.Fatalf("engine shape: %d %d %d", e.Len(), e.Partitions(), e.Dim())
	}
	qs := dataset.PerturbedQueries(ds, 60, 0.05, 2)
	truth := truthIDs(ds, qs, 10)
	res, err := e.SearchBatch(qs, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r := metrics.MeanRecall(res, truth); r < 0.8 {
		t.Errorf("engine recall %v < 0.8", r)
	}
}

func TestEngineAdaptiveRoutingBeatsTop1(t *testing.T) {
	ds := clustered(t, 3000, 16, 6, 3)
	qs := dataset.PerturbedQueries(ds, 40, 0.2, 4)
	truth := truthIDs(ds, qs, 10)

	top1 := DefaultConfig(8)
	top1.NProbe = 1
	e1, err := NewEngine(ds.Clone(), top1)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := e1.SearchBatch(qs, 10, 2)

	ad := DefaultConfig(8)
	ad.Routing = RouteAdaptive
	e2, err := NewEngine(ds.Clone(), ad)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := e2.SearchBatch(qs, 10, 2)

	rec1 := metrics.MeanRecall(r1, truth)
	rec2 := metrics.MeanRecall(r2, truth)
	if rec2 < rec1 {
		t.Errorf("adaptive recall %v < top-1 recall %v", rec2, rec1)
	}
	if rec2 < 0.9 {
		t.Errorf("adaptive recall %v < 0.9", rec2)
	}
}

func TestEngineSearchErrors(t *testing.T) {
	ds := clustered(t, 200, 8, 2, 5)
	e, err := NewEngine(ds, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(make([]float32, 5), 3); err == nil {
		t.Error("want dim error")
	}
	if _, err := e.SearchBatch(vec.NewDataset(5, 0), 3, 1); err == nil {
		t.Error("want dim error on batch")
	}
	rs, err := e.Search(ds.At(0), 0) // k=0 falls back to cfg.K
	if err != nil || len(rs) == 0 {
		t.Errorf("k fallback: %v %v", rs, err)
	}
}

func TestEngineKnobs(t *testing.T) {
	ds := clustered(t, 400, 8, 2, 6)
	e, _ := NewEngine(ds, DefaultConfig(4))
	e.SetNProbe(99)
	if e.cfg.NProbe != 4 {
		t.Errorf("NProbe clamp: %d", e.cfg.NProbe)
	}
	e.SetNProbe(2)
	if e.cfg.NProbe != 2 {
		t.Error("SetNProbe ignored")
	}
	e.SetEfSearch(77)
	if g, ok := coreIndexGraph(e); !ok || g.Config().EfSearch != 77 {
		t.Error("SetEfSearch not propagated")
	}
	if e.LocalKind() != "hnsw" {
		t.Errorf("LocalKind = %q", e.LocalKind())
	}
}

func TestEngineSaveLoad(t *testing.T) {
	ds := clustered(t, 800, 16, 4, 7)
	e, err := NewEngine(ds.Clone(), DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Len() != e.Len() || e2.Partitions() != e.Partitions() {
		t.Fatalf("shape after load: %d/%d", e2.Len(), e2.Partitions())
	}
	for i := 0; i < 10; i++ {
		q := ds.At(i * 37)
		a, _ := e.Search(q, 5)
		b, _ := e2.Search(q, 5)
		if len(a) != len(b) {
			t.Fatal("result count differs after load")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("result differs after load: %+v vs %+v", a[j], b[j])
			}
		}
	}
	if _, err := LoadEngine(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("want error for junk")
	}
}

// --- distributed construction ---

func TestBuildDistributedPartitionsAgreeWithTree(t *testing.T) {
	ds := clustered(t, 2000, 12, 4, 8)
	for _, p := range []int{2, 4, 8} {
		w := cluster.NewWorld(p)
		partSizes := make([]int, p)
		partIDs := make([][]int64, p)
		var trees []*treeCheck
		err := w.Run(func(c *cluster.Comm) error {
			shard, err := ScatterDataset(c, 0, ds, 1)
			if err != nil {
				return err
			}
			cfg := DefaultConfig(p)
			b, err := BuildDistributed(c, shard, cfg)
			if err != nil {
				return err
			}
			partSizes[c.Rank()] = b.Local.Len()
			ids := make([]int64, b.Local.Len())
			copy(ids, b.Local.IDs)
			partIDs[c.Rank()] = ids
			if c.Rank() == 0 {
				trees = append(trees, &treeCheck{b: b})
			}
			if b.PartitionID != c.Rank() {
				t.Errorf("partition id %d != rank %d", b.PartitionID, c.Rank())
			}
			if b.Index.Len() != b.Local.Len() {
				t.Errorf("index size %d != partition size %d", b.Index.Len(), b.Local.Len())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		// coverage + disjointness
		seen := make(map[int64]bool)
		total := 0
		for _, ids := range partIDs {
			total += len(ids)
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("p=%d: duplicate id %d", p, id)
				}
				seen[id] = true
			}
		}
		if total != ds.Len() {
			t.Fatalf("p=%d: covered %d/%d points", p, total, ds.Len())
		}
		// near-balance (weighted-median approximation allows some slack)
		minS, maxS := ds.Len(), 0
		for _, s := range partSizes {
			if s < minS {
				minS = s
			}
			if s > maxS {
				maxS = s
			}
		}
		if maxS > 3*minS+16 {
			t.Errorf("p=%d: imbalance %d..%d", p, minS, maxS)
		}
		// the tree on rank 0 must route every point to its own partition
		tc := trees[len(trees)-1]
		if tc.b.Tree.Leaves != p {
			t.Fatalf("p=%d: tree has %d leaves", p, tc.b.Tree.Leaves)
		}
	}
}

type treeCheck struct{ b *Built }

func TestBuildDistributedTreeRoutesHome(t *testing.T) {
	ds := clustered(t, 1500, 8, 4, 9)
	p := 4
	w := cluster.NewWorld(p)
	home := make(map[int64]int)
	var tb *Built
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	err := w.Run(func(c *cluster.Comm) error {
		shard, err := ScatterDataset(c, 0, ds, 2)
		if err != nil {
			return err
		}
		b, err := BuildDistributed(c, shard, DefaultConfig(p))
		if err != nil {
			return err
		}
		<-mu
		for i := 0; i < b.Local.Len(); i++ {
			home[b.Local.ID(i)] = b.PartitionID
		}
		if c.Rank() == 0 {
			tb = b
		}
		mu <- struct{}{}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// every dataset point must be routed (Home) to the partition that
	// holds it: the geometric invariant of the distributed construction
	misrouted := 0
	for i := 0; i < ds.Len(); i++ {
		if tb.Tree.Home(ds.At(i)) != home[ds.ID(i)] {
			misrouted++
		}
	}
	if misrouted > 0 {
		t.Errorf("%d/%d points misrouted by the distributed tree", misrouted, ds.Len())
	}
}

func TestBuildDistributedReplication(t *testing.T) {
	ds := clustered(t, 800, 8, 4, 10)
	p := 4
	r := 3
	w := cluster.NewWorld(p)
	err := w.Run(func(c *cluster.Comm) error {
		shard, err := ScatterDataset(c, 0, ds, 3)
		if err != nil {
			return err
		}
		cfg := DefaultConfig(p)
		cfg.Replication = r
		b, err := BuildDistributed(c, shard, cfg)
		if err != nil {
			return err
		}
		if len(b.Replicas) != r {
			t.Errorf("rank %d hosts %d replicas, want %d", c.Rank(), len(b.Replicas), r)
		}
		for off := 0; off < r; off++ {
			want := (c.Rank() - off + p) % p
			if b.Replicas[want] == nil {
				t.Errorf("rank %d missing replica of partition %d", c.Rank(), want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- distributed search (the headline integration test) ---

func runDistributedSearch(t *testing.T, ds, qs *vec.Dataset, cfg Config, p int) *BatchResult {
	t.Helper()
	w := cluster.NewWorld(p + 1)
	var out *BatchResult
	err := w.Run(func(c *cluster.Comm) error {
		return RunCluster(c, ds, cfg, func(m *Master) error {
			res, err := m.Search(qs)
			if err != nil {
				return err
			}
			out = res
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDistributedSearchRecall(t *testing.T) {
	ds := clustered(t, 3000, 24, 6, 11)
	qs := dataset.PerturbedQueries(ds, 50, 0.05, 12)
	truth := truthIDs(ds, qs, 10)
	cfg := DefaultConfig(4)
	cfg.NProbe = 3
	cfg.ThreadsPerWorker = 2
	res := runDistributedSearch(t, ds, qs, cfg, 4)
	if len(res.Results) != qs.Len() {
		t.Fatalf("got %d result rows", len(res.Results))
	}
	if r := metrics.MeanRecall(res.Results, truth); r < 0.8 {
		t.Errorf("distributed recall %v < 0.8", r)
	}
	if res.Dispatched != int64(qs.Len()*3) {
		t.Errorf("dispatched %d, want %d", res.Dispatched, qs.Len()*3)
	}
	var totalProcessed int64
	for _, n := range res.PerWorkerQueries {
		totalProcessed += n
	}
	if totalProcessed != res.Dispatched {
		t.Errorf("processed %d != dispatched %d", totalProcessed, res.Dispatched)
	}
	if res.Work.DistComps == 0 {
		t.Error("no work stats")
	}
}

func TestDistributedOneSidedMatchesTwoSided(t *testing.T) {
	ds := clustered(t, 2000, 16, 4, 13)
	qs := dataset.PerturbedQueries(ds, 30, 0.05, 14)
	for _, oneSided := range []bool{true, false} {
		cfg := DefaultConfig(4)
		cfg.OneSided = oneSided
		cfg.Seed = 5
		res := runDistributedSearch(t, ds, qs, cfg, 4)
		truth := truthIDs(ds, qs, 10)
		if r := metrics.MeanRecall(res.Results, truth); r < 0.75 {
			t.Errorf("oneSided=%v recall %v", oneSided, r)
		}
	}
}

func TestDistributedAgainstSingleProcessEngine(t *testing.T) {
	// The distributed engine and the single-process engine implement the
	// same algorithm; with identical seeds and routing they must reach
	// comparable recall on the same workload.
	ds := clustered(t, 2400, 16, 4, 15)
	qs := dataset.PerturbedQueries(ds, 40, 0.05, 16)
	truth := truthIDs(ds, qs, 10)

	cfg := DefaultConfig(4)
	cfg.NProbe = 2
	e, err := NewEngine(ds.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := e.SearchBatch(qs, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	dres := runDistributedSearch(t, ds, qs, cfg, 4)

	rl := metrics.MeanRecall(local, truth)
	rd := metrics.MeanRecall(dres.Results, truth)
	if rd < rl-0.1 {
		t.Errorf("distributed recall %v much worse than local %v", rd, rl)
	}
}

func TestDistributedReplicationBalancesLoad(t *testing.T) {
	ds := clustered(t, 2000, 16, 4, 17)
	// skewed queries: all in one cluster -> one partition hammered
	g, _ := dataset.GenerateClusters(dataset.ClusterConfig{N: 2000, Dim: 16, Clusters: 4, Seed: 17})
	qs, _ := g.Queries(dataset.QueryConfig{N: 80, Cluster: 1, Seed: 18})

	imb := map[int]float64{}
	for _, r := range []int{1, 3} {
		cfg := DefaultConfig(4)
		cfg.Replication = r
		cfg.NProbe = 2
		res := runDistributedSearch(t, ds, qs, cfg, 4)
		_, _, f := metrics.NewHistogram(res.PerWorkerQueries).Spread()
		imb[r] = f
	}
	if imb[3] > imb[1]+1e-9 {
		t.Errorf("replication did not reduce imbalance: r=1 %.3f, r=3 %.3f", imb[1], imb[3])
	}
}

func TestDistributedAdaptiveRouting(t *testing.T) {
	ds := clustered(t, 1600, 12, 4, 19)
	qs := dataset.PerturbedQueries(ds, 25, 0.05, 20)
	truth := truthIDs(ds, qs, 10)
	cfg := DefaultConfig(4)
	cfg.Routing = RouteAdaptive
	res := runDistributedSearch(t, ds, qs, cfg, 4)
	if r := metrics.MeanRecall(res.Results, truth); r < 0.85 {
		t.Errorf("adaptive distributed recall %v", r)
	}
}

func TestDistributedMultipleBatches(t *testing.T) {
	ds := clustered(t, 1200, 8, 4, 21)
	qs1 := dataset.PerturbedQueries(ds, 20, 0.05, 22)
	qs2 := dataset.PerturbedQueries(ds, 15, 0.05, 23)
	w := cluster.NewWorld(4 + 1)
	cfg := DefaultConfig(4)
	err := w.Run(func(c *cluster.Comm) error {
		return RunCluster(c, ds, cfg, func(m *Master) error {
			a, err := m.Search(qs1)
			if err != nil {
				return err
			}
			b, err := m.Search(qs2)
			if err != nil {
				return err
			}
			if len(a.Results) != 20 || len(b.Results) != 15 {
				t.Errorf("batch sizes: %d %d", len(a.Results), len(b.Results))
			}
			if m.ConstructionStats().HNSW <= 0 {
				t.Error("no construction stats")
			}
			if m.Tree() == nil {
				t.Error("no tree")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedQueryDimMismatch(t *testing.T) {
	ds := clustered(t, 400, 8, 2, 24)
	w := cluster.NewWorld(3)
	err := w.Run(func(c *cluster.Comm) error {
		return RunCluster(c, ds, DefaultConfig(2), func(m *Master) error {
			if _, err := m.Search(vec.NewDataset(5, 0)); err == nil {
				t.Error("want dim error")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunClusterTooSmall(t *testing.T) {
	w := cluster.NewWorld(1)
	err := w.Run(func(c *cluster.Comm) error {
		return RunCluster(c, nil, DefaultConfig(1), nil)
	})
	if err == nil {
		t.Error("want size error")
	}
}

// --- multiple-owner strategy ---

func TestMultipleOwnerRecall(t *testing.T) {
	ds := clustered(t, 2000, 16, 4, 25)
	qs := dataset.PerturbedQueries(ds, 40, 0.05, 26)
	truth := truthIDs(ds, qs, 10)
	p := 4
	w := cluster.NewWorld(p)
	var out [][]topk.Result
	err := w.Run(func(c *cluster.Comm) error {
		cfg := DefaultConfig(p)
		cfg.NProbe = 2
		res, err := RunMultipleOwner(c, ds, qs, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = res
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != qs.Len() {
		t.Fatalf("got %d rows", len(out))
	}
	if r := metrics.MeanRecall(out, truth); r < 0.75 {
		t.Errorf("multiple-owner recall %v", r)
	}
}

// --- larger world smoke test (oversubscribed ranks) ---

func TestDistributedManyRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ds := clustered(t, 4096, 16, 8, 27)
	qs := dataset.PerturbedQueries(ds, 64, 0.05, 28)
	cfg := DefaultConfig(16)
	cfg.NProbe = 3
	res := runDistributedSearch(t, ds, qs, cfg, 16)
	truth := truthIDs(ds, qs, 10)
	if r := metrics.MeanRecall(res.Results, truth); r < 0.7 {
		t.Errorf("16-worker recall %v", r)
	}
}

func BenchmarkEngineSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	_ = rng
	ds := clustered(b, 20000, 64, 8, 29)
	e, err := NewEngine(ds, DefaultConfig(8))
	if err != nil {
		b.Fatal(err)
	}
	q := ds.At(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(q, 10)
	}
}

// coreIndexGraph unwraps the first partition's HNSW graph.
func coreIndexGraph(e *Engine) (*hnsw.Graph, bool) {
	if len(e.parts) == 0 {
		return nil, false
	}
	return index.HNSWGraph(e.parts[0])
}

func TestEngineLocalIndexVariants(t *testing.T) {
	ds := clustered(t, 1500, 12, 4, 40)
	qs := dataset.PerturbedQueries(ds, 25, 0.05, 41)
	truth := truthIDs(ds, qs, 10)
	for _, kind := range []string{"hnsw", "vp", "kd", "flat"} {
		cfg := DefaultConfig(4)
		cfg.LocalIndex = kind
		cfg.Routing = RouteAdaptive
		e, err := NewEngine(ds.Clone(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if e.LocalKind() != kind {
			t.Errorf("LocalKind = %q want %q", e.LocalKind(), kind)
		}
		res, err := e.SearchBatch(qs, 10, 2)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		r := metrics.MeanRecall(res, truth)
		// adaptive routing + exact local indexes must be exact
		if kind != "hnsw" && r < 0.999 {
			t.Errorf("%s: exact local index recall %v < 1", kind, r)
		}
		if kind == "hnsw" && r < 0.85 {
			t.Errorf("hnsw recall %v", r)
		}
		if kind != "hnsw" {
			if err := e.Save(io.Discard); err == nil {
				t.Errorf("%s: Save should reject non-HNSW locals", kind)
			}
		}
	}
	cfg := DefaultConfig(4)
	cfg.LocalIndex = "bogus"
	if _, err := NewEngine(ds.Clone(), cfg); err == nil {
		t.Error("want error for unknown local index")
	}
}

// Deleted reports whether id has no live row on an engine that has
// started locating its IDs: the IDs the lexical leg hides.
func (e *Engine) Deleted(id int64) bool {
	d := &e.dynamic
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, live := d.slots[id]
	return d.slots != nil && !live
}

func TestEngineDynamicAddDelete(t *testing.T) {
	ds := clustered(t, 1000, 8, 4, 60)
	cfg := DefaultConfig(4)
	cfg.NProbe = 4
	e, err := NewEngine(ds.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// insert a brand-new point very close to an existing one
	newVec := append([]float32(nil), ds.At(5)...)
	newVec[0] += 0.001
	if err := e.Add(newVec, 999_999); err != nil {
		t.Fatal(err)
	}
	rs, err := e.Search(newVec, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rs {
		if r.ID == 999_999 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted point not found: %+v", rs)
	}

	// delete it: it must vanish, and k results still come back
	e.Delete(999_999)
	if !e.Deleted(999_999) || e.Tombstones() != 1 {
		t.Fatal("tombstone not recorded")
	}
	rs, _ = e.Search(newVec, 3)
	for _, r := range rs {
		if r.ID == 999_999 {
			t.Fatalf("deleted point still returned: %+v", rs)
		}
	}
	if len(rs) != 3 {
		t.Errorf("got %d results, want 3", len(rs))
	}

	// revive by re-adding
	if err := e.Add(newVec, 999_999); err != nil {
		t.Fatal(err)
	}
	if e.Deleted(999_999) || e.Tombstones() != 1 {
		t.Error("re-add should give the ID a live row and leave the dead one dead")
	}

	// errors
	if err := e.Add(make([]float32, 3), 1); err == nil {
		t.Error("want dim error")
	}
	e.Delete(424242) // idempotent no-op
}

func TestEngineAddRejectedForExactLocals(t *testing.T) {
	ds := clustered(t, 400, 6, 2, 61)
	cfg := DefaultConfig(2)
	cfg.LocalIndex = "flat"
	e, err := NewEngine(ds.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Add(ds.At(0), 77); err == nil {
		t.Error("flat local index should reject Add")
	}
}

func TestEngineConcurrentAddSearch(t *testing.T) {
	ds := clustered(t, 2000, 8, 4, 62)
	cfg := DefaultConfig(4)
	e, err := NewEngine(ds.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				v := append([]float32(nil), ds.At(rng.Intn(ds.Len()))...)
				v[0] += float32(rng.NormFloat64())
				if err := e.Add(v, int64(1_000_000+seed*1000+int64(i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(w))
	}
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed + 100))
			for i := 0; i < 100; i++ {
				if _, err := e.Search(ds.At(rng.Intn(ds.Len())), 5); err != nil {
					done <- err
					return
				}
				if i%10 == 0 {
					e.Delete(int64(rng.Intn(2000)))
				}
			}
			done <- nil
		}(int64(w))
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineRebuildCompactsTombstones(t *testing.T) {
	ds := clustered(t, 800, 8, 4, 63)
	cfg := DefaultConfig(4)
	cfg.NProbe = 4
	e, err := NewEngine(ds.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 100; id++ {
		e.Delete(id)
	}
	if e.Tombstones() != 100 {
		t.Fatalf("tombstones %d", e.Tombstones())
	}
	if err := e.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if e.Tombstones() != 0 {
		t.Error("rebuild kept tombstones")
	}
	if e.Len() != 700 {
		t.Errorf("live size %d, want 700", e.Len())
	}
	rs, err := e.Search(ds.At(0), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.ID < 100 {
			t.Fatalf("deleted id %d resurrected", r.ID)
		}
	}
}

func TestMultipleOwnerSingleRank(t *testing.T) {
	ds := clustered(t, 300, 6, 2, 64)
	qs := dataset.PerturbedQueries(ds, 10, 0.05, 65)
	w := cluster.NewWorld(1)
	var out [][]topk.Result
	err := w.Run(func(c *cluster.Comm) error {
		cfg := DefaultConfig(1)
		res, err := RunMultipleOwner(c, ds, qs, cfg)
		out = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("rows %d", len(out))
	}
	truth := truthIDs(ds, qs, 10)
	if r := metrics.MeanRecall(out, truth); r < 0.9 {
		t.Errorf("single-rank owner recall %v", r)
	}
}

// Property: wire encoding roundtrips arbitrary queries and results.
func TestWireQuick(t *testing.T) {
	err := quick.Check(func(qid uint32, part int16, k uint16, comps [6]float32) bool {
		m := queryMsg{QueryID: qid, Partition: int32(part), K: k, Vec: comps[:]}
		got, err := decodeQuery(encodeQuery(m))
		if err != nil || got.QueryID != m.QueryID || got.Partition != m.Partition || got.K != m.K {
			return false
		}
		for i := range m.Vec {
			if got.Vec[i] != m.Vec[i] && !(got.Vec[i] != got.Vec[i] && m.Vec[i] != m.Vec[i]) {
				return false // NaN-safe compare
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
	err = quick.Check(func(qid uint32, ids [4]int64, dists [4]float32, dc int64) bool {
		rs := make([]topk.Result, 4)
		for i := range rs {
			rs[i] = topk.Result{ID: ids[i], Dist: dists[i]}
		}
		m := resultMsg{QueryID: qid, Partition: 1, DistComps: dc, Results: rs}
		got, err := decodeResult(encodeResult(m))
		if err != nil || got.QueryID != qid || got.DistComps != dc || len(got.Results) != 4 {
			return false
		}
		for i := range rs {
			if got.Results[i].ID != rs[i].ID {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestDistributedTracing(t *testing.T) {
	ds := clustered(t, 800, 8, 4, 80)
	qs := dataset.PerturbedQueries(ds, 10, 0.05, 81)
	rec := trace.New(256)
	cfg := DefaultConfig(3)
	cfg.Trace = rec
	w := cluster.NewWorld(4)
	err := w.Run(func(c *cluster.Comm) error {
		return RunCluster(c, ds, cfg, func(m *Master) error {
			_, err := m.Search(qs)
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range rec.Events() {
		kinds[e.Kind]++
	}
	if kinds["batch"] < 2 || kinds["dispatch"] == 0 || kinds["task"] == 0 || kinds["done"] == 0 {
		t.Errorf("missing trace kinds: %v", kinds)
	}
	var sb strings.Builder
	if err := rec.Timeline(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dispatch") {
		t.Error("timeline lacks dispatch events")
	}
}

// Property: engine results are valid dataset IDs, sorted by distance,
// at most k long, and contain no tombstoned IDs.
func TestEngineResultInvariantsQuick(t *testing.T) {
	ds := clustered(t, 900, 6, 3, 90)
	cfg := DefaultConfig(4)
	cfg.NProbe = 2
	e, err := NewEngine(ds.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[int64]bool{}
	for i := 0; i < ds.Len(); i++ {
		valid[ds.ID(i)] = true
	}
	e.Delete(7)
	err = quick.Check(func(qx [6]float32, kRaw uint8) bool {
		k := int(kRaw%8) + 1
		rs, err := e.Search(qx[:], k)
		if err != nil || len(rs) > k {
			return false
		}
		for i, r := range rs {
			if !valid[r.ID] || r.ID == 7 {
				return false
			}
			if i > 0 && r.Dist < rs[i-1].Dist {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}
