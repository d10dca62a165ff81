package core

import (
	"fmt"
	"sync"

	"repro/internal/hnsw"
	"repro/internal/index"
	"repro/internal/vec"
)

// Dynamic updates. The paper's engine is built once over a static
// snapshot; a production deployment also needs inserts and deletes
// between batch windows. Inserts route new vectors to their home
// partition's HNSW graph (the VP tree keeps routing correctly: the home
// partition is by construction the region the point falls into).
// Deletes are tombstones — HNSW graphs do not support structural removal
// cheaply, so a deleted ID's rows stay in the graph until a fold rebuilds
// their partition without them. Until then the tombstone set is one more
// predicate on the read side (admit): every leg of a search admits only
// live IDs, exactly as a filter admits only matching ones. A fold is the
// one exit: it forgets the ID everywhere the engine keys it (see fold).
//
// Updates and searches may interleave: the tombstone set takes an
// RWMutex, and HNSW insertion is internally thread-safe.

// dynamicState holds the mutable update state attached to every
// Engine. The pointer is set at construction and never reassigned;
// the embedded mutex guards the contents.
type dynamicState struct {
	mu        sync.RWMutex
	tombstone map[int64]bool
	inserted  int64
}

func newDynamicState() *dynamicState {
	return &dynamicState{tombstone: make(map[int64]bool)}
}

func (e *Engine) dyn() *dynamicState { return e.dynamic }

// Add inserts a vector with the given global ID into its home
// partition. Only engines with HNSW local indexes support insertion.
func (e *Engine) Add(v []float32, id int64) error {
	home, err := e.Home(v)
	if err != nil {
		return err
	}
	level, err := e.DrawLevel(home)
	if err != nil {
		return err
	}
	return e.AddAt(home, v, id, level)
}

// Home returns the partition a vector routes to on insertion.
func (e *Engine) Home(v []float32) (int, error) {
	if len(v) != e.dim {
		return 0, fmt.Errorf("core: vector dim %d, index dim %d", len(v), e.dim)
	}
	tree, _ := e.view()
	return tree.Home(v), nil
}

// DrawLevel draws the HNSW level the next insert into partition p will
// be assigned, consuming the partition's level generator. Durable
// ingestion draws the level, logs (p, level, vector) to its WAL, and
// then applies with AddAt, so replaying the log rebuilds an identical
// graph.
func (e *Engine) DrawLevel(p int) (int, error) {
	g, err := e.insertGraph(p)
	if err != nil {
		return 0, err
	}
	return g.NextLevel(), nil
}

// AddAt inserts a vector into partition p at a predetermined HNSW
// level — the replay half of the DrawLevel/AddAt pair. Most callers
// want Add, which routes and draws for them.
func (e *Engine) AddAt(p int, v []float32, id int64, level int) error {
	if len(v) != e.dim {
		return fmt.Errorf("core: vector dim %d, index dim %d", len(v), e.dim)
	}
	g, err := e.insertGraph(p)
	if err != nil {
		return err
	}
	if _, err := g.AddAtLevel(v, id, level); err != nil {
		return err
	}
	e.tags.added(p, g, id)
	d := e.dyn()
	d.mu.Lock()
	d.inserted++
	delete(d.tombstone, id) // re-adding a deleted ID revives it
	d.mu.Unlock()
	return nil
}

// insertGraph resolves partition p's HNSW graph for mutation.
func (e *Engine) insertGraph(p int) (*hnsw.Graph, error) {
	_, parts := e.view()
	if p < 0 || p >= len(parts) {
		return nil, fmt.Errorf("core: partition %d out of range [0,%d)", p, len(parts))
	}
	g, ok := index.HNSWGraph(parts[p])
	if !ok {
		return nil, fmt.Errorf("core: local index %q does not support insertion", parts[p].Kind())
	}
	return g, nil
}

// Inserted returns the number of vectors added since construction (or
// since the last Rebuild).
func (e *Engine) Inserted() int64 {
	d := e.dyn()
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.inserted
}

// Delete tombstones an ID: it stops appearing in results immediately.
// Deleting an unknown ID is a no-op (idempotent).
func (e *Engine) Delete(id int64) {
	d := e.dyn()
	d.mu.Lock()
	d.tombstone[id] = true
	d.mu.Unlock()
}

// Deleted reports whether id is tombstoned.
func (e *Engine) Deleted(id int64) bool {
	d := e.dyn()
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tombstone[id]
}

// TombstoneIDs returns a copy of the current tombstone set. The
// durability layer's compactor uses it to find the partitions carrying
// the most dead weight.
func (e *Engine) TombstoneIDs() []int64 {
	d := e.dyn()
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := make([]int64, 0, len(d.tombstone))
	for id := range d.tombstone {
		ids = append(ids, id)
	}
	return ids
}

// RestoreDynamic reinstates update state that lives outside the engine
// file: the tombstone set and the inserted counter. Save captures the
// graphs but not this state, so the durable store persists it alongside
// each snapshot and calls RestoreDynamic after LoadEngine during
// recovery — otherwise a checkpoint would silently resurrect every ID
// deleted before it.
func (e *Engine) RestoreDynamic(tombstones []int64, inserted int64) {
	d := e.dyn()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tombstone = make(map[int64]bool, len(tombstones))
	for _, id := range tombstones {
		d.tombstone[id] = true
	}
	d.inserted = inserted
}

// Tombstones returns the number of tombstoned IDs.
func (e *Engine) Tombstones() int {
	d := e.dyn()
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.tombstone)
}

// admit is the read side's one deletion rule: the predicate every leg
// of a search honours, not tombstoned and keep (nil admits every ID).
// While there are no tombstones it is keep itself, so a search on an
// engine that never deletes takes the path it always has. The tombstone
// is asked first: fold clears it last, so an ID it lets through has
// already lost the tags keep would match.
func (e *Engine) admit(keep func(int64) bool) func(int64) bool {
	d := e.dyn()
	d.mu.RLock()
	none := len(d.tombstone) == 0
	d.mu.RUnlock()
	if none {
		return keep
	}
	return func(id int64) bool {
		d.mu.RLock()
		dead := d.tombstone[id]
		d.mu.RUnlock()
		return !dead && (keep == nil || keep(id))
	}
}

// fold forgets IDs whose rows the rebuilt partitions no longer hold,
// everywhere the engine keys them: tags and postings first, then the
// lexical document, and the tombstone last, so a search racing the fold
// finds each ID either still tombstoned or with nothing left to match.
// SwapPartition and Rebuild call it once the new partitions are in.
func (e *Engine) fold(ids []int64) {
	if len(ids) == 0 {
		return
	}
	e.tags.forget(ids)
	lex := e.lexIndex()
	for _, id := range ids {
		lex.Delete(id)
	}
	d := e.dyn()
	d.mu.Lock()
	for _, id := range ids {
		delete(d.tombstone, id)
	}
	d.mu.Unlock()
}

// Rebuild compacts the engine: it re-partitions and re-indexes the
// current live contents (original + inserted - tombstoned vectors) and
// folds every tombstone it found. The paper rebuilds offline between
// batch windows; this is that operation in-process.
func (e *Engine) Rebuild() error {
	dead := e.TombstoneIDs()
	_, parts := e.view()
	live := vec.NewDataset(e.dim, e.Len())
	for _, p := range parts {
		g, ok := index.HNSWGraph(p)
		if !ok {
			return fmt.Errorf("core: Rebuild requires HNSW local indexes, have %q", p.Kind())
		}
		ds := g.Data()
		for i := 0; i < ds.Len(); i++ {
			if !e.Deleted(ds.ID(i)) {
				live.Append(ds.At(i), ds.ID(i))
			}
		}
	}
	fresh, err := NewEngine(live, e.cfg)
	if err != nil {
		return err
	}
	e.swapMu.Lock()
	e.tree = fresh.tree
	e.parts = fresh.parts
	e.swapMu.Unlock()
	e.tags.rebuilt(fresh.parts)
	e.fold(dead)
	d := e.dyn()
	d.mu.Lock()
	d.inserted = 0
	d.mu.Unlock()
	return nil
}
