// Package core implements the paper's system: a distributed approximate
// k-NN engine that partitions the dataset with a vantage point tree
// (built cooperatively by all ranks, Algorithms 1–2), indexes each
// partition with HNSW, and answers query batches with a master–worker
// protocol (Algorithms 3–4) optionally optimised with one-sided result
// accumulation (Section IV-C1) and replication-based load balancing
// (Section IV-C2, Algorithm 5). The master runs every batch through one
// round-numbered loop that also fails lost tasks over to the replicas
// of their workgroup.
//
// Three entry points:
//
//   - Engine: single-process facade — partitions, indexes and searches in
//     one address space with a worker pool. This is the library API the
//     examples use.
//   - RunCluster: the full message-passing engine on a cluster.Comm
//     (rank 0 = master, ranks 1..P = workers), used by every scaling
//     experiment and by the TCP deployment. RunClusterPrebuilt and
//     RunClusterFromCheckpoint replace its construction and share its
//     lifecycle: rank 0 drives and then shuts down, the others serve.
//     RunCluster and RunClusterFromCheckpoint open with rank 0's join,
//     which tells every worker what to build or load.
//   - RunMultipleOwner: the multiple-owner variant the paper discusses in
//     Section IV.
package core

import (
	"fmt"
	"time"

	"repro/internal/hnsw"
	"repro/internal/trace"
	"repro/internal/vec"
)

// RoutingMode selects how the master computes F(q).
type RoutingMode int

const (
	// RouteTop searches the NProbe partitions with the smallest VP-tree
	// lower bounds — the throughput-oriented mode of the paper.
	RouteTop RoutingMode = iota
	// RouteAdaptive first searches the home partition, then widens to
	// every partition whose region intersects the ball of the current
	// k-th distance (two-phase; higher recall, more work).
	RouteAdaptive
)

// Config parameterises the engine.
type Config struct {
	// K is the number of neighbors per query (the paper uses 10).
	K int
	// Partitions is P, the number of data partitions = processing cores.
	Partitions int
	// NProbe is |F(q)| in RouteTop mode (default 2).
	NProbe int
	// Routing selects the routing mode.
	Routing RoutingMode
	// Replication is the load-balancing replication factor r (Section
	// IV-C2); 1 means no replication. RunCluster and
	// RunClusterFromCheckpoint use rank 0's, for the master's replica
	// choice and for what every worker builds or must have checkpointed.
	Replication int
	// ThreadsPerWorker is the number of searcher goroutines per worker
	// rank — the OpenMP threads of the paper (default 1). Each worker
	// reads its own; rank 0's is never read.
	ThreadsPerWorker int
	// CoresPerNode groups partitions into compute nodes (Figure 1 of the
	// paper: a node with cores {p1..pn} hosts partitions {D1..Dn}, all
	// reachable by any of the node's threads). Each worker rank then
	// plays one compute node serving CoresPerNode partitions; default 1
	// (one partition per rank, the flat layout). Supported by the
	// prebuilt path.
	CoresPerNode int
	// OneSided sends a batch's first-round results through the
	// MPI_Get_accumulate-style window instead of result messages (default
	// set by DefaultConfig; the ablation toggles it). Windows are not
	// failure-safe, so a batch uses one only when QueryTimeout is 0 and
	// every worker is alive; otherwise it collects two-sided.
	OneSided bool
	// Metric is the distance metric (the paper uses L2 everywhere); rank
	// 0's in a RunCluster build.
	Metric vec.Metric
	// HNSW configures the local indexes; zero value means
	// hnsw.DefaultConfig(Metric). A RunCluster build uses rank 0's.
	HNSW hnsw.Config
	// LocalIndex selects the per-partition index algorithm for the
	// single-process Engine: "hnsw" (default, the paper's choice), or
	// the exact alternatives "vp", "kd", "flat" — the extensibility
	// point Section VI describes. The distributed engine currently
	// always uses HNSW (its replication path ships serialized graphs).
	LocalIndex string
	// Frozen lays every partition out flat for serving after
	// construction (CSR adjacency over the graph's own rows instead of
	// per-node allocations) and re-freezes partitions on every
	// SwapPartition. Engines restored from disk freeze via
	// Engine.Freeze instead. HNSW local indexes only.
	Frozen bool
	// SQ8 additionally scans SQ8 scalar-quantized codes during frozen
	// candidate generation and re-ranks the top RerankK candidates at
	// full precision. Requires Frozen and an L2-family metric.
	SQ8 bool
	// RerankK is the re-rank budget of the quantized frozen path: >0
	// re-ranks that many candidates, 0 defaults to 4*k per query, <0
	// disables quantized scoring (exact float32 scoring throughout).
	RerankK int
	// Seed makes partitioning and index construction reproducible; a
	// RunCluster build uses rank 0's.
	Seed int64
	// CheckpointDir, when non-empty, makes every worker of a RunCluster
	// build save its partition there (and the workers' first rank the
	// routing tree); RunClusterFromCheckpoint restarts a cluster from the
	// directory. It is rank 0's path, resolved on every host.
	CheckpointDir string
	// Trace, when non-nil, records master and worker events (routing,
	// dispatch, task execution, completion) for timeline inspection.
	// In-process worlds share the recorder directly; the TCP deployment
	// records per process.
	Trace *trace.Recorder
	// QueryTimeout bounds each collection round of a batch: a worker
	// that has not closed the round by then is declared lagging and its
	// tasks are rerouted to replicas in the same workgroup (Algorithm 5's
	// W_i doubling as failover targets). Zero means no round deadline;
	// dead workers are still detected and failed over. A positive value
	// makes every batch collect two-sided (see OneSided).
	QueryTimeout time.Duration
	// MaxRetries bounds the retry rounds per batch after the first
	// (default 2).
	MaxRetries int
	// RetryBackoff is the base of the exponential backoff between retry
	// rounds: round i sleeps RetryBackoff << (i-1) (default 50ms).
	RetryBackoff time.Duration
}

// DefaultConfig returns the configuration used by the paper's headline
// experiments: k=10, L2, one-sided communication on, no replication.
func DefaultConfig(partitions int) Config {
	return Config{
		K:                10,
		Partitions:       partitions,
		NProbe:           2,
		Replication:      1,
		ThreadsPerWorker: 1,
		OneSided:         true,
		Metric:           vec.L2,
		Seed:             1,
	}
}

func (c *Config) fill(dim int) error {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Partitions <= 0 {
		return fmt.Errorf("core: need positive partition count, got %d", c.Partitions)
	}
	if c.NProbe <= 0 {
		c.NProbe = 2
	}
	if c.NProbe > c.Partitions {
		c.NProbe = c.Partitions
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.Replication > c.Partitions {
		c.Replication = c.Partitions
	}
	if c.ThreadsPerWorker <= 0 {
		c.ThreadsPerWorker = 1
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 1
	}
	if c.HNSW.M == 0 {
		c.HNSW = hnsw.DefaultConfig(c.Metric)
	}
	c.HNSW.Metric = c.Metric
	if c.MaxRetries <= 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	_ = dim
	return nil
}

// WorkStats aggregates the work performed during a batch search; the
// cost model (internal/costmodel) prices these into modelled times for
// the large-P experiments.
type WorkStats struct {
	DistComps int64 // distance computations across all ranks
	Hops      int64 // HNSW graph expansions
	Messages  int64 // messages sent (including one-sided accumulates)
	Bytes     int64 // payload bytes moved
}

// Add combines two work stats.
func (w WorkStats) Add(o WorkStats) WorkStats {
	return WorkStats{
		DistComps: w.DistComps + o.DistComps,
		Hops:      w.Hops + o.Hops,
		Messages:  w.Messages + o.Messages,
		Bytes:     w.Bytes + o.Bytes,
	}
}
