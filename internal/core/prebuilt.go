package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/index"
	"repro/internal/vptree"
)

// Prebuilt injects already-constructed partition indexes and routing
// tree into a cluster run, skipping the distributed build. The scaling
// experiments use it for very large worker counts: the distributed
// construction's AlltoAllv costs O(P^2) messages per level, which the
// real machine amortises over its fabric but an in-process simulation
// at P=8192 should not replay when only the *search* protocol is being
// measured. (Construction itself is measured separately, at feasible P,
// by the Table II experiment.)
type Prebuilt struct {
	Tree *vptree.PartitionTree
	// Indexes[i] serves partition i; len = P. Any index.Local works —
	// HNSW for the paper's engine, exact VP/KD/flat for the
	// extensibility ablations.
	Indexes []index.Local
}

// RunClusterPrebuilt is RunCluster with construction replaced by the
// supplied Prebuilt. All ranks must pass the same pre value (the
// in-process transport shares memory, mirroring a cluster whose ranks
// load a prebuilt index from a parallel filesystem).
func RunClusterPrebuilt(c *cluster.Comm, pre *Prebuilt, cfg Config, driver func(*Master) error) error {
	if c.Size() < 2 {
		return fmt.Errorf("core: need at least 1 master + 1 worker, got %d ranks", c.Size())
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = 1
	}
	cfg.Partitions = (c.Size() - 1) * cfg.CoresPerNode
	if len(pre.Indexes) != cfg.Partitions {
		return fmt.Errorf("core: %d prebuilt indexes for %d cores (%d workers x %d cores/node)",
			len(pre.Indexes), cfg.Partitions, c.Size()-1, cfg.CoresPerNode)
	}
	if err := cfg.fill(pre.Tree.Dim); err != nil {
		return err
	}
	d := &Distributed{comm: c, cfg: cfg, dim: pre.Tree.Dim, tree: pre.Tree}
	// Every rank joins the split the distributed build makes (master
	// alone, workers together).
	if _, err := c.Split(min(c.Rank(), 1), c.Rank()); err != nil {
		return err
	}
	if c.Rank() == 0 {
		return d.serve(driver)
	}
	// This rank plays one compute node hosting the partitions of its
	// CoresPerNode cores, plus the replication copies each of those
	// cores' workgroups imply. Replication is satisfied without traffic:
	// replicas are reachable in shared memory, like a node-local copy;
	// the message cost of real replication is charged by the Table II /
	// Fig 4 construction accounting.
	cpn := cfg.CoresPerNode
	firstCore := (c.Rank() - 1) * cpn
	b := &Built{
		PartitionID: firstCore,
		Replicas:    make(map[int]index.Local),
	}
	r := cfg.Replication
	p := cfg.Partitions
	for core := firstCore; core < firstCore+cpn; core++ {
		for off := 0; off < r; off++ {
			src := (core - off + p) % p
			b.Replicas[src] = pre.Indexes[src]
		}
	}
	d.builtB = b
	return d.serve(nil)
}
