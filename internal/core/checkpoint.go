package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/hnsw"
	"repro/internal/index"
	"repro/internal/vptree"
)

// Checkpointing. The paper's distributed construction takes ~15 minutes
// at 8192 cores (Table II); a production cluster builds once, saves each
// rank's partition index plus the master's routing tree, and serves many
// batch windows from the checkpoint. These helpers write one file per
// worker plus a tree file, and restart a cluster from them.

// checkpointMagic identifies worker checkpoint files.
const checkpointMagic = "ANNC"

// SaveCheckpoint is called collectively on the workers' communicator
// after BuildDistributed: every rank writes <dir>/part-<id>.ann (its
// own index plus hosted replicas) and rank 0 writes <dir>/tree.vp.
func (b *Built) SaveCheckpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("part-%d.ann", b.PartitionID))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		f.Close()
		return err
	}
	// header: own partition id + replica count, then (id, index) pairs
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(b.PartitionID))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(b.Replicas)))
	if _, err := bw.Write(hdr); err != nil {
		f.Close()
		return err
	}
	for id, l := range b.Replicas {
		g, ok := index.HNSWGraph(l)
		if !ok {
			f.Close()
			return fmt.Errorf("core: checkpointing supports HNSW locals only (partition %d is %q)", id, l.Kind())
		}
		var idb [4]byte
		binary.LittleEndian.PutUint32(idb[:], uint32(id))
		if _, err := bw.Write(idb[:]); err != nil {
			f.Close()
			return err
		}
		if _, err := g.WriteTo(bw); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if b.Tree != nil {
		tf, err := os.Create(filepath.Join(dir, "tree.vp"))
		if err != nil {
			return err
		}
		if err := b.Tree.Encode(tf); err != nil {
			tf.Close()
			return err
		}
		return tf.Close()
	}
	return nil
}

// LoadCheckpoint reads one rank's checkpoint file. Before touching the
// partition file it validates the directory as a whole — a missing
// tree.vp or a partition id outside the tree's leaf count fails here
// with a descriptive error instead of surfacing later as a confusing
// mid-replay failure.
func LoadCheckpoint(dir string, partition int) (*Built, error) {
	tree, err := LoadCheckpointTree(dir)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= tree.Leaves {
		return nil, fmt.Errorf("core: checkpoint %q holds %d partitions; partition %d out of range",
			dir, tree.Leaves, partition)
	}
	f, err := os.Open(filepath.Join(dir, fmt.Sprintf("part-%d.ann", partition)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("core: checkpoint %q has tree.vp but no part-%d.ann (did every rank finish SaveCheckpoint?): %w",
				dir, partition, err)
		}
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	b := &Built{
		PartitionID: int(binary.LittleEndian.Uint32(hdr[0:])),
		Replicas:    make(map[int]index.Local),
	}
	if b.PartitionID != partition {
		return nil, fmt.Errorf("core: checkpoint file part-%d.ann claims partition %d (renamed or mixed checkpoint dirs?)",
			partition, b.PartitionID)
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	if n > tree.Leaves {
		return nil, fmt.Errorf("core: checkpoint part-%d.ann holds %d replicas but the tree has only %d partitions",
			partition, n, tree.Leaves)
	}
	for i := 0; i < n; i++ {
		var idb [4]byte
		if _, err := io.ReadFull(br, idb[:]); err != nil {
			return nil, err
		}
		id := int(binary.LittleEndian.Uint32(idb[:]))
		if id < 0 || id >= tree.Leaves {
			return nil, fmt.Errorf("core: checkpoint part-%d.ann replica id %d out of range [0,%d)",
				partition, id, tree.Leaves)
		}
		g, err := hnsw.ReadFrom(br)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint partition %d replica %d: %w", partition, id, err)
		}
		b.Replicas[id] = index.WrapHNSW(g)
	}
	if l, ok := b.Replicas[b.PartitionID]; ok {
		g, _ := index.HNSWGraph(l)
		b.Index = g
		b.Local = g.Data()
	} else {
		return nil, fmt.Errorf("core: checkpoint for partition %d lacks its own index", partition)
	}
	return b, nil
}

// LoadCheckpointTree reads the routing tree written by rank 0.
func LoadCheckpointTree(dir string) (*vptree.PartitionTree, error) {
	f, err := os.Open(filepath.Join(dir, "tree.vp"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("core: %q is not a checkpoint directory: missing tree.vp (rank 0 writes it last; was the build interrupted?): %w",
				dir, err)
		}
		return nil, err
	}
	defer f.Close()
	t, err := vptree.ReadPartitionTree(f)
	if err != nil {
		return nil, fmt.Errorf("core: decoding %s: %w", filepath.Join(dir, "tree.vp"), err)
	}
	return t, nil
}

// RunClusterFromCheckpoint serves batches from a checkpoint directory:
// rank 0 loads the tree and drives; ranks 1..P load part-(rank-1).ann.
// The replication factor is implied by the checkpoint contents and must
// match cfg.Replication.
func RunClusterFromCheckpoint(c *cluster.Comm, dir string, cfg Config, driver func(*Master) error) error {
	if c.Size() < 2 {
		return fmt.Errorf("core: need at least 1 master + 1 worker")
	}
	cfg.Partitions = c.Size() - 1
	d, err := loadCluster(c, dir, cfg)
	if err != nil {
		if c.Rank() == 0 {
			// Workers that loaded successfully must not wait forever
			// for a batch.
			_ = sendShutdown(c)
		}
		return err
	}
	return d.serve(driver)
}

// loadCluster reads this rank's share of a checkpoint: the routing tree
// on rank 0, the partition file on a worker.
func loadCluster(c *cluster.Comm, dir string, cfg Config) (*Distributed, error) {
	if c.Rank() == 0 {
		tree, err := LoadCheckpointTree(dir)
		if err != nil {
			return nil, err
		}
		if tree.Leaves != cfg.Partitions {
			return nil, fmt.Errorf("core: checkpoint has %d partitions, cluster has %d workers",
				tree.Leaves, cfg.Partitions)
		}
		if err := cfg.fill(tree.Dim); err != nil {
			return nil, err
		}
		return &Distributed{comm: c, cfg: cfg, dim: tree.Dim, tree: tree}, nil
	}
	b, err := LoadCheckpoint(dir, c.Rank()-1)
	if err != nil {
		return nil, err
	}
	if len(b.Replicas) < cfg.Replication {
		return nil, fmt.Errorf("core: checkpoint replication %d < configured %d",
			len(b.Replicas), cfg.Replication)
	}
	dim := b.Index.Dim()
	if err := cfg.fill(dim); err != nil {
		return nil, err
	}
	return &Distributed{comm: c, cfg: cfg, dim: dim, builtB: b}, nil
}
