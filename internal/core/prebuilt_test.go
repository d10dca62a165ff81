package core

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/hnsw"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/vec"
	"repro/internal/vptree"
)

// BuildPrebuilt constructs the Prebuilt bundle the scaling experiments
// inject: sequential partitioning + per-partition HNSW.
func buildPrebuilt(t testing.TB, ds *vec.Dataset, p int, cfg Config) *Prebuilt {
	t.Helper()
	if err := cfg.fill(ds.Dim); err != nil {
		t.Fatal(err)
	}
	res, err := vptree.BuildPartitions(ds, p, vptree.PartitionConfig{Metric: cfg.Metric, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	pre := &Prebuilt{Tree: res.Tree, Indexes: make([]index.Local, p)}
	for i := 0; i < p; i++ {
		hcfg := cfg.HNSW
		hcfg.Seed = cfg.Seed + int64(i)
		g, _, err := hnsw.Build(res.Partitions[i], hcfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		pre.Indexes[i] = index.WrapHNSW(g)
	}
	return pre
}

func TestRunClusterPrebuiltRecall(t *testing.T) {
	ds := clustered(t, 2000, 16, 4, 31)
	qs := dataset.PerturbedQueries(ds, 40, 0.05, 32)
	truth := truthIDs(ds, qs, 10)
	p := 8
	cfg := DefaultConfig(p)
	cfg.NProbe = 3
	cfg.Replication = 2
	pre := buildPrebuilt(t, ds.Clone(), p, cfg)

	w := cluster.NewWorld(p + 1)
	var res *BatchResult
	err := w.Run(func(c *cluster.Comm) error {
		return RunClusterPrebuilt(c, pre, cfg, func(m *Master) error {
			r, err := m.Search(qs)
			res = r
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := metrics.MeanRecall(res.Results, truth); r < 0.8 {
		t.Errorf("prebuilt cluster recall %v", r)
	}
	if res.Dispatched != int64(qs.Len()*3) {
		t.Errorf("dispatched %d", res.Dispatched)
	}
}

func TestRunClusterPrebuiltSizeMismatch(t *testing.T) {
	ds := clustered(t, 400, 8, 2, 33)
	cfg := DefaultConfig(2)
	pre := buildPrebuilt(t, ds, 2, cfg)
	w := cluster.NewWorld(4) // 3 workers but 2 indexes
	err := w.Run(func(c *cluster.Comm) error {
		err := RunClusterPrebuilt(c, pre, cfg, func(m *Master) error { return nil })
		if err == nil {
			t.Error("want mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Failure injection: one worker hosts a nil index, so every task routed
// to it fails. The batch must complete with degraded results (no
// deadlock) that name the lost partition, and the worker's error must
// surface from Run.
func TestWorkerFailureDegradesGracefully(t *testing.T) {
	ds := clustered(t, 1200, 8, 4, 50)
	qs := dataset.PerturbedQueries(ds, 30, 0.05, 51)
	p := 4
	for _, oneSided := range []bool{true, false} {
		cfg := DefaultConfig(p)
		cfg.NProbe = p // hit every partition so the bad worker is exercised
		cfg.OneSided = oneSided
		pre := buildPrebuilt(t, ds.Clone(), p, cfg)
		pre.Indexes[2] = nil // worker 3 hosts nothing

		w := cluster.NewWorld(p + 1)
		var res *BatchResult
		err := w.Run(func(c *cluster.Comm) error {
			return RunClusterPrebuilt(c, pre, cfg, func(m *Master) error {
				r, err := m.Search(qs)
				res = r
				return err
			})
		})
		if err == nil {
			t.Fatalf("oneSided=%v: worker failure should surface", oneSided)
		}
		if res == nil {
			t.Fatalf("oneSided=%v: batch did not complete", oneSided)
		}
		if !res.Degraded || !reflect.DeepEqual(res.FailedPartitions, []int{2}) {
			t.Errorf("oneSided=%v: degraded=%v failed partitions %v, want true [2]",
				oneSided, res.Degraded, res.FailedPartitions)
		}
		nonEmpty := 0
		for _, r := range res.Results {
			if len(r) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty == 0 {
			t.Errorf("oneSided=%v: no degraded results at all", oneSided)
		}
	}
}

// The distributed engine can serve any index.Local: with exact flat
// locals and full routing, the cluster's answers must be exact.
func TestRunClusterPrebuiltExactLocals(t *testing.T) {
	ds := clustered(t, 1200, 10, 4, 95)
	qs := dataset.PerturbedQueries(ds, 25, 0.05, 96)
	truth := truthIDs(ds, qs, 10)
	p := 4
	cfg := DefaultConfig(p)
	cfg.NProbe = p // search every partition: exact

	res, err := vptree.BuildPartitions(ds.Clone(), p, vptree.PartitionConfig{Metric: cfg.Metric, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	pre := &Prebuilt{Tree: res.Tree, Indexes: make([]index.Local, p)}
	flat, _ := index.BuilderFor("flat")
	for i := 0; i < p; i++ {
		l, err := flat(res.Partitions[i], cfg.Metric, 1)
		if err != nil {
			t.Fatal(err)
		}
		pre.Indexes[i] = l
	}
	w := cluster.NewWorld(p + 1)
	var out *BatchResult
	err = w.Run(func(c *cluster.Comm) error {
		return RunClusterPrebuilt(c, pre, cfg, func(m *Master) error {
			r, err := m.Search(qs)
			out = r
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := metrics.MeanRecall(out.Results, truth); r < 0.999 {
		t.Errorf("exact distributed recall %v < 1", r)
	}
}

// Compute-node layout (Figure 1): W worker ranks each serve
// CoresPerNode partitions; dispatch lands on the right node and recall
// matches the flat layout.
func TestRunClusterPrebuiltComputeNodes(t *testing.T) {
	ds := clustered(t, 2000, 12, 4, 97)
	qs := dataset.PerturbedQueries(ds, 30, 0.05, 98)
	truth := truthIDs(ds, qs, 10)
	const partitions = 12
	const cpn = 4 // 3 worker ranks, 4 cores each
	cfg := DefaultConfig(partitions)
	cfg.NProbe = 3
	cfg.CoresPerNode = cpn
	cfg.ThreadsPerWorker = 2
	pre := buildPrebuilt(t, ds.Clone(), partitions, DefaultConfig(partitions))

	w := cluster.NewWorld(partitions/cpn + 1)
	var res *BatchResult
	err := w.Run(func(c *cluster.Comm) error {
		return RunClusterPrebuilt(c, pre, cfg, func(m *Master) error {
			r, err := m.Search(qs)
			res = r
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := metrics.MeanRecall(res.Results, truth); r < 0.8 {
		t.Errorf("node-layout recall %v", r)
	}
	if len(res.PerWorkerQueries) != partitions/cpn {
		t.Errorf("per-worker array sized %d, want %d", len(res.PerWorkerQueries), partitions/cpn)
	}
	var total int64
	for _, n := range res.PerWorkerQueries {
		total += n
	}
	if total != res.Dispatched {
		t.Errorf("processed %d != dispatched %d", total, res.Dispatched)
	}
}

// Node layout combined with replication: every workgroup member's node
// must host the partition, so dispatch never misses.
func TestRunClusterPrebuiltNodesWithReplication(t *testing.T) {
	ds := clustered(t, 1600, 8, 4, 99)
	qs := dataset.PerturbedQueries(ds, 20, 0.05, 100)
	const partitions = 8
	const cpn = 2
	cfg := DefaultConfig(partitions)
	cfg.NProbe = partitions
	cfg.CoresPerNode = cpn
	cfg.Replication = 3
	pre := buildPrebuilt(t, ds.Clone(), partitions, DefaultConfig(partitions))
	w := cluster.NewWorld(partitions/cpn + 1)
	var res *BatchResult
	err := w.Run(func(c *cluster.Comm) error {
		return RunClusterPrebuilt(c, pre, cfg, func(m *Master) error {
			r, err := m.Search(qs)
			res = r
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := truthIDs(ds, qs, 10)
	if r := metrics.MeanRecall(res.Results, truth); r < 0.9 {
		t.Errorf("replicated node-layout recall %v", r)
	}
}
