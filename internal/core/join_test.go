package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/vec"
)

// Join tests: rank 0's join message is the only source of what a worker
// builds or loads. Each run gets its own 30 s deadline, because a rank
// that disagrees with the others about the build waits forever for a
// message that never comes.

// joinRun runs one in-process cluster on w: rank 0 calls master, every
// other rank calls worker. It returns each rank's error, and fails the
// test if the ranks have not all returned within 30 s.
func joinRun(t *testing.T, w *cluster.World, master, worker func(*cluster.Comm) error) []error {
	t.Helper()
	defer w.Close()
	errs := make([]error, w.Size())
	var wg sync.WaitGroup
	for r := 0; r < w.Size(); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn := worker
			if rank == 0 {
				fn = master
			}
			errs[rank] = fn(w.Comm(rank))
		}(r)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("cluster still running 30s after the start: a rank waits for a message that never comes")
	}
	return errs
}

// noErrors fails the test on any rank's error.
func noErrors(t *testing.T, errs []error) {
	t.Helper()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// searchOnce is a driver that answers qs once into *out.
func searchOnce(qs *vec.Dataset, out **BatchResult) func(*Master) error {
	return func(m *Master) error {
		res, err := m.Search(qs)
		*out = res
		return err
	}
}

// rankZeroConfig is the master's configuration in the join tests:
// settings a worker's DefaultConfig disagrees with.
func rankZeroConfig(p int) Config {
	cfg := DefaultConfig(p)
	cfg.Replication = 2
	cfg.Seed = 9
	return cfg
}

// sameBatch fails the test unless two batches answered identically and
// dispatched the same tasks to the same workers.
func sameBatch(t *testing.T, got, want *BatchResult) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatal("missing batch result")
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Error("results differ")
	}
	if got.Dispatched != want.Dispatched {
		t.Errorf("dispatched %d, want %d", got.Dispatched, want.Dispatched)
	}
	if !reflect.DeepEqual(got.PerWorkerQueries, want.PerWorkerQueries) {
		t.Errorf("per-worker queries %v, want %v", got.PerWorkerQueries, want.PerWorkerQueries)
	}
}

// buildCheckpoint builds a cluster of workerCfg.Partitions workers from
// ds with rank 0 at cfg plus CheckpointDir = dir and every worker at
// workerCfg, answers qs once, and returns that batch.
func buildCheckpoint(t *testing.T, ds, qs *vec.Dataset, cfg, workerCfg Config, dir string) *BatchResult {
	t.Helper()
	cfg.CheckpointDir = dir
	var res *BatchResult
	noErrors(t, joinRun(t, cluster.NewWorld(workerCfg.Partitions+1),
		func(c *cluster.Comm) error { return RunCluster(c, ds, cfg, searchOnce(qs, &res)) },
		func(c *cluster.Comm) error { return RunCluster(c, nil, workerCfg, nil) }))
	return res
}

// everyRank is cfg with CheckpointDir = dir: a worker's Config in a
// cluster whose every rank is given the same one.
func everyRank(cfg Config, dir string) Config {
	cfg.CheckpointDir = dir
	return cfg
}

// TestDistributedJoinWorkersFollowRankZero: workers given their own
// defaults build what rank 0's Replication and Seed say, so the batch is
// the one a cluster whose every rank has rank 0's Config answers.
func TestDistributedJoinWorkersFollowRankZero(t *testing.T) {
	const p = 4
	ds := clustered(t, 2000, 16, 4, 61)
	qs := dataset.PerturbedQueries(ds, 40, 0.05, 62)
	cfg := rankZeroConfig(p)

	var want, got *BatchResult
	noErrors(t, joinRun(t, cluster.NewWorld(p+1),
		func(c *cluster.Comm) error { return RunCluster(c, ds, cfg, searchOnce(qs, &want)) },
		func(c *cluster.Comm) error { return RunCluster(c, nil, cfg, nil) }))
	noErrors(t, joinRun(t, cluster.NewWorld(p+1),
		func(c *cluster.Comm) error { return RunCluster(c, ds, cfg, searchOnce(qs, &got)) },
		func(c *cluster.Comm) error { return RunCluster(c, nil, DefaultConfig(p), nil) }))
	sameBatch(t, got, want)
	if got.Degraded {
		t.Errorf("degraded batch, failed partitions %v", got.FailedPartitions)
	}
}

// TestDistributedJoinOneWorkerDisagrees: one worker given Replication 2
// among workers (and a master) at 1 still finishes construction, because
// it replicates as rank 0 says.
func TestDistributedJoinOneWorkerDisagrees(t *testing.T) {
	const p = 4
	ds := clustered(t, 2000, 16, 4, 63)
	qs := dataset.PerturbedQueries(ds, 40, 0.05, 64)
	var res *BatchResult
	noErrors(t, joinRun(t, cluster.NewWorld(p+1),
		func(c *cluster.Comm) error { return RunCluster(c, ds, DefaultConfig(p), searchOnce(qs, &res)) },
		func(c *cluster.Comm) error {
			cfg := DefaultConfig(p)
			if c.Rank() == 2 {
				cfg.Replication = 2
			}
			return RunCluster(c, nil, cfg, nil)
		}))
	if res == nil || res.Degraded || len(res.Results) != qs.Len() {
		t.Fatalf("batch %+v", res)
	}
}

// TestDistributedJoinCheckpointFromRankZero: a CheckpointDir given to
// rank 0 alone is written by the workers, and a resume given to rank 0
// alone loads it on every worker and answers the batch identically.
func TestDistributedJoinCheckpointFromRankZero(t *testing.T) {
	const p = 4
	ds := clustered(t, 2000, 16, 4, 65)
	qs := dataset.PerturbedQueries(ds, 40, 0.05, 66)
	cfg := rankZeroConfig(p)
	dir := t.TempDir()
	built := buildCheckpoint(t, ds, qs, cfg, DefaultConfig(p), dir)
	for _, f := range []string{"tree.vp", "part-0.ann", "part-1.ann", "part-2.ann", "part-3.ann"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("checkpoint not written: %v", err)
		}
	}

	var resumed *BatchResult
	noErrors(t, joinRun(t, cluster.NewWorld(p+1),
		func(c *cluster.Comm) error { return RunClusterFromCheckpoint(c, dir, cfg, searchOnce(qs, &resumed)) },
		func(c *cluster.Comm) error { return RunCluster(c, nil, DefaultConfig(p), nil) }))
	sameBatch(t, resumed, built)
}

// TestDistributedJoinResumeReplicationShort: resuming a Replication 2
// checkpoint with rank 0 at 3 fails every worker at startup with the
// checkpoint-replication error, whatever the workers were given.
func TestDistributedJoinResumeReplicationShort(t *testing.T) {
	const p = 4
	ds := clustered(t, 2000, 16, 4, 67)
	qs := dataset.PerturbedQueries(ds, 10, 0.05, 68)
	dir := t.TempDir()
	buildCheckpoint(t, ds, qs, rankZeroConfig(p), everyRank(rankZeroConfig(p), dir), dir)

	cfg := rankZeroConfig(p)
	cfg.Replication = 3
	errs := joinRun(t, cluster.NewWorld(p+1),
		func(c *cluster.Comm) error {
			return RunClusterFromCheckpoint(c, dir, cfg, func(*Master) error { return nil })
		},
		func(c *cluster.Comm) error { return RunClusterFromCheckpoint(c, dir, DefaultConfig(p), nil) })
	if errs[0] != nil {
		t.Errorf("rank 0: %v", errs[0])
	}
	for r := 1; r <= p; r++ {
		if errs[r] == nil || !strings.Contains(errs[r].Error(), "checkpoint replication 2 < configured 3") {
			t.Errorf("rank %d: got %v, want the checkpoint-replication error", r, errs[r])
		}
	}
}

// TestDistributedJoinResumeWithDeadWorker: a worker that is down before
// the join is skipped, and rank 0 still answers through the replicas.
func TestDistributedJoinResumeWithDeadWorker(t *testing.T) {
	const p, victim = 4, 2
	ds := clustered(t, 2000, 16, 4, 69)
	qs := dataset.PerturbedQueries(ds, 40, 0.05, 70)
	cfg := rankZeroConfig(p)
	dir := t.TempDir()
	built := buildCheckpoint(t, ds, qs, cfg, everyRank(cfg, dir), dir)

	w := cluster.NewWorld(p + 1)
	w.KillRank(victim)
	var res *BatchResult
	noErrors(t, joinRun(t, w,
		func(c *cluster.Comm) error { return RunClusterFromCheckpoint(c, dir, cfg, searchOnce(qs, &res)) },
		func(c *cluster.Comm) error {
			if c.Rank() == victim {
				return nil
			}
			return RunClusterFromCheckpoint(c, dir, cfg, nil)
		}))
	if res == nil || res.Degraded {
		t.Fatalf("batch %+v", res)
	}
	if !reflect.DeepEqual(res.Results, built.Results) {
		t.Error("results differ from the healthy run")
	}
	if res.PerWorkerQueries[victim-1] != 0 {
		t.Errorf("dead worker %d served %d tasks", victim, res.PerWorkerQueries[victim-1])
	}
}

// TestDistributedJoinMasterFailsFirst: a master that fails before the
// join (here: too few points to partition) sends the shutdown header
// instead, and every worker ends instead of waiting for a join.
func TestDistributedJoinMasterFailsFirst(t *testing.T) {
	const p = 4
	ds := clustered(t, 400, 8, 2, 71).Slice(0, 2)
	errs := joinRun(t, cluster.NewWorld(p+1),
		func(c *cluster.Comm) error { return RunCluster(c, ds, DefaultConfig(p), nil) },
		func(c *cluster.Comm) error { return RunCluster(c, nil, DefaultConfig(p), nil) })
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d: want an error", r)
		}
	}
}
