package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/hnsw"
	"repro/internal/index"
	"repro/internal/vec"
)

// Dynamic updates. The paper's engine is built once over a static
// snapshot; a production deployment also needs upserts and deletes
// between batch windows. One rule covers both: each ID has at most one
// live row. Liveness belongs to rows — every partition carries the set
// of its dead rows (index.Local.Dead), and every layout reads a row's
// bit before it maps the row to an ID — and the engine keeps one
// locator, ID → (partition, row), over the live ones. An upsert routes
// the vector to its home partition's HNSW graph (the VP tree keeps
// routing correctly: the home partition is by construction the region
// the point falls into), marks the ID's previous row dead and points the
// ID's slot at the new row; a delete marks the row dead and frees the
// slot. HNSW graphs do not support structural removal cheaply, so dead
// rows stay in their graph until a fold rebuilds the partition without
// them (SwapPartition, Rebuild); tags and text are forgotten then, for
// the IDs left without a live row.
//
// The locator is built the first time anything upserts, deletes or tags
// (locateLocked), so an engine that is only searched never allocates it.
// Mutations serialize on dynamicState.mu. The beams read dead bits
// without locks; the two legs that resolve IDs themselves — the filter
// planner's candidate scan and the lexical leg — read the locator under
// the read lock.

// dynamicState is the update state every Engine embeds; its mutex
// guards the contents.
type dynamicState struct {
	mu sync.RWMutex
	// slots is the locator: the live row of every ID that has one. It
	// stays nil until something upserts, deletes or tags.
	slots    map[int64]slot
	inserted int64
}

// slot is where an ID's live row sits.
type slot struct{ part, row uint32 }

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
// want Add, which routes and draws for them. An ID that already has a
// live row is replaced: the new row goes in first, then the old one dies,
// so a search racing the upsert finds one of the two (topk.Merge keeps
// an ID once). A document the ID has keeps its text and takes the new
// vector, which hybrid search re-scores against.
func (e *Engine) AddAt(p int, v []float32, id int64, level int) error {
	d := &e.dynamic
	d.mu.Lock()
	defer d.mu.Unlock()
	e.locateLocked()
	g, err := e.insertGraph(p)
	if err != nil {
		return err
	}
	row := g.Len() // inserts serialize on d.mu
	if _, err := g.AddAtLevel(v, id, level); err != nil {
		return err
	}
	if old, ok := d.slots[id]; ok {
		e.kill(old)
	}
	d.slots[id] = slot{uint32(p), uint32(row)}
	d.inserted++
	e.lexIndex().SetVector(id, v)
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
	d := &e.dynamic
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.inserted
}

// Delete marks id's live row dead and frees its slot: the ID stops
// appearing in results immediately. Deleting an ID without a live row is
// a no-op (idempotent).
func (e *Engine) Delete(id int64) {
	d := &e.dynamic
	d.mu.Lock()
	defer d.mu.Unlock()
	e.locateLocked()
	if s, ok := d.slots[id]; ok {
		e.kill(s)
		delete(d.slots, id)
	}
}

// kill marks s's row dead. Caller holds d.mu.
func (e *Engine) kill(s slot) {
	_, parts := e.view()
	parts[s.part].Dead().Kill(int(s.row))
}

// locateLocked builds the locator from the rows the partitions hold, once:
// every live row takes its ID's slot. Where one ID has several live
// rows — only an engine image written before upserts replaced can — the
// later row of one partition wins, and across partitions the
// lower-numbered partition wins; the losers die, so every ID is left
// with at most one live row. Caller holds d.mu.
func (e *Engine) locateLocked() {
	d := &e.dynamic
	if d.slots != nil {
		return
	}
	d.slots = make(map[int64]slot, e.Len())
	_, parts := e.view()
	for p, l := range parts {
		ds, dead := l.Rows(), l.Dead()
		for row := 0; row < ds.Len(); row++ {
			if dead.Has(row) {
				continue
			}
			id := ds.ID(row)
			if old, ok := d.slots[id]; ok {
				if int(old.part) != p {
					dead.Kill(row)
					continue
				}
				dead.Kill(int(old.row))
			}
			d.slots[id] = slot{uint32(p), uint32(row)}
		}
	}
}

// locate builds the locator if nothing has yet.
func (e *Engine) locate() {
	d := &e.dynamic
	d.mu.Lock()
	e.locateLocked()
	d.mu.Unlock()
}

// DeadRows returns every partition's dead rows, ascending, keyed by
// partition; partitions without any are absent. Save writes the same
// rows into the image; the durable store also persists them in its
// manifest beside each snapshot and hands them back to RestoreDynamic.
func (e *Engine) DeadRows() map[int][]uint32 {
	_, parts := e.view()
	dead := make(map[int][]uint32)
	for p, l := range parts {
		if rows := l.Dead().Rows(); rows != nil {
			dead[p] = rows
		}
	}
	return dead
}

// RestoreDynamic reinstates the update state an image may not capture —
// each partition's dead rows (DeadRows) and the inserted counter — and
// builds the locator from the rows left live (see locateLocked for the
// rule an image with duplicate IDs opens under). The durable store calls
// it after LoadEngine during recovery. A row the image already holds dead
// stays dead; a row past the end of its partition, or named twice in
// dead, is an error: the rows do not describe this image.
func (e *Engine) RestoreDynamic(dead map[int][]uint32, inserted int64) error {
	_, parts := e.view()
	for p, rows := range dead {
		if p < 0 || p >= len(parts) {
			return fmt.Errorf("core: dead rows name partition %d of %d", p, len(parts))
		}
		named := make([]uint64, (parts[p].Len()+63)/64)
		for _, row := range rows {
			if int(row) >= parts[p].Len() {
				return fmt.Errorf("core: dead row %d is past the end of partition %d (%d rows)", row, p, parts[p].Len())
			}
			if named[row/64]&(1<<(row%64)) != 0 {
				return fmt.Errorf("core: dead row %d of partition %d is named twice", row, p)
			}
			named[row/64] |= 1 << (row % 64)
			parts[p].Dead().Kill(int(row))
		}
	}
	d := &e.dynamic
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inserted = inserted
	d.slots = nil
	e.locateLocked()
	return nil
}

// Tombstones returns the number of dead rows waiting for a fold: rows
// deleted or superseded by an upsert that their partitions still hold.
func (e *Engine) Tombstones() int {
	_, parts := e.view()
	n := 0
	for _, l := range parts {
		n += l.Dead().Count()
	}
	return n
}

// admit is the lexical leg's liveness rule: keep (nil admits every ID)
// and, once the engine locates its IDs, a live row. A deleted ID's
// document stays in the index until a fold forgets it; this hides it
// meanwhile. The vector legs need no such rule: they read the dead bit
// of every row they visit.
func (e *Engine) admit(keep func(int64) bool) func(int64) bool {
	d := &e.dynamic
	d.mu.RLock()
	located := d.slots != nil
	d.mu.RUnlock()
	if !located {
		return keep
	}
	return func(id int64) bool {
		d.mu.RLock()
		_, live := d.slots[id]
		d.mu.RUnlock()
		return live && (keep == nil || keep(id))
	}
}

// fold forgets the tags and text of the IDs in ids that have no live
// row left. SwapPartition and Rebuild call it, holding d.mu so no upsert
// gives one of them a row meanwhile, once the partitions that held their
// dead rows are gone.
func (e *Engine) fold(ids []int64) {
	d := &e.dynamic
	ids = slices.DeleteFunc(ids, func(id int64) bool {
		_, live := d.slots[id]
		return live
	})
	if len(ids) == 0 {
		return
	}
	e.tags.forget(ids)
	lex := e.lexIndex()
	for _, id := range ids {
		lex.Delete(id)
	}
}

// Rebuild compacts the engine: it re-partitions and re-indexes the
// live rows and folds the IDs of the dead ones. The paper rebuilds
// offline between batch windows; this is that operation in-process.
func (e *Engine) Rebuild() error {
	d := &e.dynamic
	d.mu.Lock()
	defer d.mu.Unlock()
	_, parts := e.view()
	live := vec.NewDataset(e.dim, e.Len())
	var dead []int64
	for _, p := range parts {
		ds, gone := p.Rows(), p.Dead()
		for i := 0; i < ds.Len(); i++ {
			if gone.Has(i) {
				dead = append(dead, ds.ID(i))
			} else {
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
	if d.slots != nil {
		d.slots = nil
		e.locateLocked()
	}
	e.fold(dead)
	d.inserted = 0
	return nil
}
