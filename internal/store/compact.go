package store

import (
	"fmt"
	"time"

	"repro/internal/hnsw"
	"repro/internal/index"
	"repro/internal/vec"
)

// Background compaction. A delete or an upsert leaves a dead row behind:
// the engine's searches step over it, so a partition that has absorbed
// heavy churn wastes memory and search effort on dead rows. Past
// Options.CompactRatio the compactor rebuilds the partition's HNSW graph
// offline from the rows live when it began, catches up inserts that
// raced the rebuild from a sidelog, and swaps the new graph into the
// engine atomically (searches never block and never see a half-swapped
// state). The swap marks the rows that died during the rebuild dead in
// the new graph and folds the rest — the engine forgets the tags and
// text of IDs left without a live row — and a checkpoint makes the
// shrunken state what recovery loads.

// startCompactor launches the scan loop when auto-compaction is on.
func (d *Durable) startCompactor() {
	if d.opts.CompactRatio < 0 {
		return
	}
	d.stopCompact = make(chan struct{})
	d.compactDone = make(chan struct{})
	go func() {
		defer close(d.compactDone)
		t := time.NewTicker(d.opts.CompactInterval)
		defer t.Stop()
		for {
			select {
			case <-d.stopCompact:
				return
			case <-t.C:
				if p := d.pickPartition(); p >= 0 {
					if err := d.CompactPartition(p); err != nil {
						d.opts.Logf("store: compaction of partition %d failed: %v", p, err)
					}
				}
			}
		}
	}()
}

func (d *Durable) stopCompactor() {
	if d.stopCompact != nil {
		close(d.stopCompact)
		<-d.compactDone
		d.stopCompact = nil
	}
}

// pickPartition returns the partition with the worst dead/live row
// ratio past the threshold, or -1.
func (d *Durable) pickPartition() int {
	// A poisoned WAL means the storage stack is suspect; background
	// rewrites of the manifest and snapshots would only churn a failing
	// disk. Explicit CompactPartition calls still work.
	if d.Failed() != nil {
		return -1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.compacting != -1 {
		return -1
	}
	best, bestRatio := -1, d.opts.CompactRatio
	for p := 0; p < d.eng.Partitions(); p++ {
		g, ok := d.eng.PartitionGraph(p)
		if !ok {
			continue
		}
		n, nd := g.Len(), g.Dead().Count()
		if nd == 0 {
			continue
		}
		ratio := float64(nd) / float64(max(1, n-nd))
		if ratio >= bestRatio {
			best, bestRatio = p, ratio
		}
	}
	return best
}

// CompactPartition rebuilds partition p without its dead rows and
// swaps the result into the live engine. Searches continue against the
// old graph until the swap lands; inserts routed to p during the
// rebuild are recorded in a sidelog and re-applied to the new graph
// before it goes live, so nothing is lost.
func (d *Durable) CompactPartition(p int) error {
	c, err := d.beginCompaction(p)
	if err != nil {
		return err
	}
	return d.finishCompaction(c)
}

// compaction is one CompactPartition between its first phase and the
// other two: the partition's live rows, the row each live ID came from, and
// how many rows the partition held.
type compaction struct {
	p    int
	live *vec.Dataset
	from map[int64]uint32
	rows int
	cfg  hnsw.Config
}

// beginCompaction is phase 1 (under mu): snapshot partition p's live
// rows and mark it compacting so concurrent upserts start feeding the
// sidelog.
func (d *Durable) beginCompaction(p int) (*compaction, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, errClosed
	}
	if d.compacting != -1 {
		return nil, fmt.Errorf("store: partition %d is already compacting", d.compacting)
	}
	g, ok := d.eng.PartitionGraph(p)
	if !ok {
		return nil, fmt.Errorf("store: partition %d has no HNSW graph", p)
	}
	ds, dead := g.Data(), g.Dead()
	c := &compaction{p: p, live: vec.NewDataset(ds.Dim, ds.Len()), from: make(map[int64]uint32), rows: ds.Len(), cfg: g.Config()}
	for i := 0; i < ds.Len(); i++ {
		if !dead.Has(i) {
			c.live.Append(ds.At(i), ds.ID(i))
			c.from[ds.ID(i)] = uint32(i)
		}
	}
	d.compacting = p
	d.sidelog = nil
	return c, nil
}

// finishCompaction runs phases 2 and 3 of c.
func (d *Durable) finishCompaction(c *compaction) error {
	// Phase 2 (offline): rebuild from live rows only. Mutations and
	// searches proceed against the old graph meanwhile.
	t0 := time.Now()
	ng, _, err := hnsw.Build(c.live, c.cfg, d.opts.Threads)

	// Phase 3 (under mu): catch up sidelogged inserts — the old graph's
	// rows from c.rows on, in order — swap, and checkpoint so recovery
	// sees the compacted state and the WAL can shed covered segments.
	d.mu.Lock()
	defer d.mu.Unlock()
	defer func() { d.compacting, d.sidelog = -1, nil }()
	if err != nil {
		return err
	}
	if d.closed {
		return errClosed
	}
	// A threaded build appends rows in any order; rows live at phase 1
	// have unique IDs, so each new row finds its old one by ID.
	rows := ng.Data()
	kept := make([]uint32, rows.Len(), rows.Len()+len(d.sidelog))
	for i := range kept {
		kept[i] = c.from[rows.ID(i)]
	}
	for i, s := range d.sidelog {
		if _, err := ng.AddAtLevel(s.v, s.id, s.level); err != nil {
			return err
		}
		kept = append(kept, uint32(c.rows+i))
	}
	if err := d.eng.SwapPartition(c.p, index.WrapHNSW(ng), kept); err != nil {
		return err
	}
	folded := c.rows - c.live.Len()
	d.stats.Compactions.Add(1)
	d.stats.Folded.Add(int64(folded))
	d.stats.CaughtUp.Add(int64(len(d.sidelog)))
	err = d.checkpointLocked()
	d.opts.Logf("store: compacted partition %d in %v: folded %d dead rows, caught up %d inserts, %d rows",
		c.p, time.Since(t0).Round(time.Millisecond), folded, len(d.sidelog), ng.Len())
	return err
}
