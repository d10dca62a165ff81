package core

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/vec"
)

// Failover integration tests: kill one worker mid-batch and check that
// the batch still completes — fully answered when Replication=2 (the
// workgroup replica takes over), degraded-but-returned when
// Replication=1 (no replica exists).
//
// The victim's result sends are delayed via the fault-injection wrapper
// so the batch is guaranteed to still be in flight when the kill lands.

// victimComm wraps a rank's comm so its results crawl out slowly.
func victimComm(c *cluster.Comm) *cluster.Comm {
	return cluster.WithFaults(c, cluster.FaultPlan{
		Seed:      7,
		DelayProb: 1,
		MaxDelay:  20 * time.Millisecond,
		Tags:      map[int]bool{tagResult: true},
	})
}

func ftConfig(p, repl int) Config {
	cfg := DefaultConfig(p)
	cfg.Replication = repl
	cfg.NProbe = 2
	cfg.ThreadsPerWorker = 2
	cfg.QueryTimeout = 3 * time.Second
	cfg.MaxRetries = 2
	cfg.RetryBackoff = 20 * time.Millisecond
	return cfg
}

// killInputs are the master settings every kill test runs under: the
// round deadline ftConfig sets, and no deadline at all (a dead worker is
// still detected by the watched receive).
func killInputs(cfg Config) []struct {
	name string
	cfg  Config
} {
	noDeadline := cfg
	noDeadline.QueryTimeout = 0
	noDeadline.OneSided = false
	return []struct {
		name string
		cfg  Config
	}{{"timeout=3s", cfg}, {"timeout=0", noDeadline}}
}

// runKillWorld runs master + p workers on the in-process world, kills
// victim (a worker rank) killDelay after the search starts, and returns
// the master's batch result. Worker errors are expected for the victim
// and tolerated for the others only if the master still succeeded. A
// run that outlives 30 s fails the test instead of hanging it.
func runKillWorld(t *testing.T, ds, qs *vec.Dataset, cfg Config, p, victim int, killDelay time.Duration) *BatchResult {
	t.Helper()
	w := cluster.NewWorld(p + 1)
	defer w.Close()
	var res *BatchResult
	var masterErr error
	searchStarted := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r <= p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := w.Comm(rank)
			if rank == victim {
				c = victimComm(c)
			}
			err := RunCluster(c, ds, cfg, func(m *Master) error {
				close(searchStarted)
				out, err := m.Search(qs)
				res = out
				return err
			})
			if rank == 0 {
				masterErr = err
			}
		}(r)
	}
	go func() {
		<-searchStarted
		time.Sleep(killDelay)
		w.KillRank(victim)
	}()
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("batch still running 30s after the start: a dead worker hangs the master")
	}
	if masterErr != nil {
		t.Fatalf("master: %v", masterErr)
	}
	if res == nil {
		t.Fatal("no batch result")
	}
	return res
}

func TestFailoverInProcessReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection integration test")
	}
	const p, victim = 4, 2
	ds := clustered(t, 2000, 16, 4, 21)
	qs := dataset.PerturbedQueries(ds, 100, 0.05, 22)
	truth := truthIDs(ds, qs, 10)
	for _, in := range killInputs(ftConfig(p, 2)) {
		cfg := in.cfg
		t.Run(in.name, func(t *testing.T) {
			res := runKillWorld(t, ds, qs, cfg, p, victim, 100*time.Millisecond)
			if res.Degraded {
				t.Fatalf("batch degraded with Replication=2: failed partitions %v", res.FailedPartitions)
			}
			for i, rs := range res.Results {
				if len(rs) != cfg.K {
					t.Fatalf("query %d: %d results, want %d (failover incomplete)", i, len(rs), cfg.K)
				}
			}
			if r := metrics.MeanRecall(res.Results, truth); r < 0.7 {
				t.Errorf("recall after failover %v < 0.7", r)
			}
			if res.Failovers == 0 {
				t.Error("no failovers recorded; kill landed after the batch?")
			}
		})
	}
}

func TestFailoverInProcessDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection integration test")
	}
	const p, victim = 4, 2
	ds := clustered(t, 2000, 16, 4, 23)
	qs := dataset.PerturbedQueries(ds, 100, 0.05, 24)
	for _, in := range killInputs(ftConfig(p, 1)) {
		cfg := in.cfg
		t.Run(in.name, func(t *testing.T) {
			start := time.Now()
			res := runKillWorld(t, ds, qs, cfg, p, victim, 100*time.Millisecond)
			elapsed := time.Since(start)

			if !res.Degraded {
				t.Fatal("batch not degraded with Replication=1 and a dead worker")
			}
			want := victim - 1 // CoresPerNode=1: worker rank v hosts partition v-1
			found := false
			for _, fp := range res.FailedPartitions {
				if fp == want {
					found = true
				} else {
					t.Errorf("unexpected failed partition %d (victim hosts only %d)", fp, want)
				}
			}
			if !found {
				t.Errorf("failed partitions %v do not identify the dead partition %d", res.FailedPartitions, want)
			}
			// Bounded: one round deadline plus retries and backoff, with
			// margin. Without a deadline the death itself ends the round,
			// so the deadline row's bound (which, like elapsed, covers the
			// cluster build) holds too.
			limit := 4 * cfg.QueryTimeout
			if cfg.QueryTimeout == 0 {
				limit = 12 * time.Second
			}
			if elapsed > limit {
				t.Errorf("degraded batch took %v, want < %v", elapsed, limit)
			}
			// Queries still get answers from the surviving partitions.
			answered := 0
			for _, rs := range res.Results {
				if len(rs) > 0 {
					answered++
				}
			}
			if answered < len(res.Results)/2 {
				t.Errorf("only %d/%d queries answered", answered, len(res.Results))
			}
		})
	}
}

// --- TCP variant: real sockets, worker process death = node.Close() ---

func ftFreeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// runKillTCP is runKillWorld over the TCP transport: every rank gets its
// own TCPNode on a loopback socket and the victim's node is closed (the
// process-death analogue) killDelay after the search starts.
func runKillTCP(t *testing.T, ds, qs *vec.Dataset, cfg Config, p, victim int, killDelay time.Duration) *BatchResult {
	t.Helper()
	addrs := ftFreeAddrs(t, p+1)
	opts := cluster.TCPOptions{
		DialTimeout:       10 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	}
	var res *BatchResult
	var masterErr error
	searchStarted := make(chan struct{})
	nodes := make([]*cluster.TCPNode, p+1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r <= p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			node, comm, err := cluster.JoinTCPOpts(rank, addrs, opts)
			if err != nil {
				if rank == 0 {
					masterErr = err
				}
				return
			}
			mu.Lock()
			nodes[rank] = node
			mu.Unlock()
			if rank == victim {
				comm = victimComm(comm)
			}
			err = RunCluster(comm, ds, cfg, func(m *Master) error {
				close(searchStarted)
				out, serr := m.Search(qs)
				res = out
				return serr
			})
			if rank == 0 {
				masterErr = err
			}
		}(r)
	}
	go func() {
		<-searchStarted
		time.Sleep(killDelay)
		mu.Lock()
		n := nodes[victim]
		mu.Unlock()
		if n != nil {
			n.Close()
		}
	}()
	wg.Wait()
	for r, n := range nodes {
		if n != nil && r != victim {
			n.Close()
		}
	}
	if masterErr != nil {
		t.Fatalf("master: %v", masterErr)
	}
	if res == nil {
		t.Fatal("no batch result")
	}
	return res
}

func TestFailoverTCPReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection integration test over TCP")
	}
	const p, victim = 4, 2
	ds := clustered(t, 1500, 16, 4, 25)
	qs := dataset.PerturbedQueries(ds, 80, 0.05, 26)
	cfg := ftConfig(p, 2)
	res := runKillTCP(t, ds, qs, cfg, p, victim, 100*time.Millisecond)

	if res.Degraded {
		t.Fatalf("batch degraded with Replication=2: failed partitions %v", res.FailedPartitions)
	}
	for i, rs := range res.Results {
		if len(rs) != cfg.K {
			t.Fatalf("query %d: %d results, want %d", i, len(rs), cfg.K)
		}
	}
	truth := truthIDs(ds, qs, cfg.K)
	if r := metrics.MeanRecall(res.Results, truth); r < 0.7 {
		t.Errorf("recall after failover %v < 0.7", r)
	}
}

func TestFailoverTCPDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection integration test over TCP")
	}
	const p, victim = 4, 2
	ds := clustered(t, 1500, 16, 4, 27)
	qs := dataset.PerturbedQueries(ds, 80, 0.05, 28)
	cfg := ftConfig(p, 1)
	start := time.Now()
	res := runKillTCP(t, ds, qs, cfg, p, victim, 100*time.Millisecond)
	elapsed := time.Since(start)

	if !res.Degraded {
		t.Fatal("batch not degraded with Replication=1 and a dead worker")
	}
	want := victim - 1
	found := false
	for _, fp := range res.FailedPartitions {
		if fp == want {
			found = true
		}
	}
	if !found {
		t.Errorf("failed partitions %v do not identify partition %d", res.FailedPartitions, want)
	}
	if limit := 4 * cfg.QueryTimeout; elapsed > limit {
		t.Errorf("degraded batch took %v, want < %v", elapsed, limit)
	}
}

// Replica choice walks the workgroup from the round robin's offset,
// skipping ranks that are lagging, down, or already passed over (with
// CoresPerNode = 2 two cores of a workgroup can share a rank).
func TestFailoverWalksWorkgroup(t *testing.T) {
	w := cluster.NewWorld(5)
	defer w.Close()
	d := &Distributed{
		comm:    w.Comm(0),
		cfg:     Config{Partitions: 8, CoresPerNode: 2, Replication: 3},
		lagging: make([]bool, 5),
	}
	walk := func(tk task) []int {
		var got []int
		for r := d.assign(&tk); r >= 0; r = d.assign(&tk) {
			got = append(got, r)
		}
		return got
	}
	// partition 7 from offset 1: cores 0, 1, 7 -> ranks 1, (1), 4
	if got := walk(task{part: 7, rot: 1}); !reflect.DeepEqual(got, []int{1, 4}) {
		t.Errorf("partition 7 rot 1: walked %v, want [1 4]", got)
	}
	// partition 2 from offset 0: cores 2, 3, 4 -> ranks 2, (2), 3
	d.lagging[2] = true
	if got := walk(task{part: 2}); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("partition 2 with rank 2 lagging: walked %v, want [3]", got)
	}
	w.KillRank(3)
	if got := walk(task{part: 2}); len(got) != 0 {
		t.Errorf("partition 2 with rank 2 lagging and rank 3 down: walked %v, want none", got)
	}
}
