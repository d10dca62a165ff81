package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/filter"
	"repro/internal/hnsw"
	"repro/internal/index"
	"repro/internal/lexical"
	"repro/internal/topk"
	"repro/internal/vec"
	"repro/internal/vptree"
)

// Engine is the single-process facade over the paper's design: the
// dataset is partitioned by a VP tree, each partition carries an HNSW
// index, and queries are routed to their most promising partitions and
// searched by a worker pool. It is the entry point for library users
// (see examples/) and the reference implementation the distributed
// engine is tested against.
type Engine struct {
	cfg Config
	dim int

	// swapMu guards the tree and parts headers. Readers snapshot both
	// under RLock (see view) and then work lock-free against the
	// snapshot: elements are never mutated in place — SwapPartition and
	// Rebuild install fresh slices/trees under the write lock, so a
	// search that started before a swap keeps searching the old graph
	// and one that starts after sees the new one, both valid.
	swapMu sync.RWMutex
	tree   *vptree.PartitionTree
	parts  []index.Local
	// freeze is the frozen-serving-mode state; partitions installed by
	// SwapPartition while it is on are re-frozen before they land.
	freeze freezeState

	// dynamic is the update state: the locator and the inserted
	// counter, under its own mutex (see dynamic.go).
	dynamic dynamicState

	// tags holds per-vector metadata as postings, consulted by filtered
	// search; set at construction and never reassigned (internally
	// concurrency-safe). plan counts what the filter planner decided.
	tags *tagStore
	plan planCounters

	// lex is the BM25 inverted index behind SearchHybrid. Like tags it
	// is internally concurrency-safe; the pointer itself is guarded by
	// lexMu only because SetLexicalConfig may swap in a reconfigured
	// empty index before any documents are indexed.
	lexMu sync.RWMutex
	lex   *lexical.Index
}

// view snapshots the routing tree and partition set for one operation.
func (e *Engine) view() (*vptree.PartitionTree, []index.Local) {
	e.swapMu.RLock()
	t, p := e.tree, e.parts
	e.swapMu.RUnlock()
	return t, p
}

// NewEngine partitions and indexes ds. The dataset is copied into the
// partition indexes; ds itself is not retained.
func NewEngine(ds *vec.Dataset, cfg Config) (*Engine, error) {
	if err := cfg.fill(ds.Dim); err != nil {
		return nil, err
	}
	res, err := vptree.BuildPartitions(ds, cfg.Partitions, vptree.PartitionConfig{
		Metric: cfg.Metric,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, tree: res.Tree, parts: make([]index.Local, cfg.Partitions), dim: ds.Dim, tags: newTagStore(), lex: lexical.NewIndex(lexical.Config{})}

	// Build the partition indexes in parallel, one builder goroutine per
	// CPU (each build itself is single-threaded for reproducibility).
	nw := runtime.GOMAXPROCS(0)
	if nw > cfg.Partitions {
		nw = cfg.Partitions
	}
	var wg sync.WaitGroup
	errs := make([]error, cfg.Partitions)
	work := make(chan int, cfg.Partitions)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				var build index.Builder
				if cfg.LocalIndex == "" || cfg.LocalIndex == "hnsw" {
					hcfg := cfg.HNSW
					hcfg.Seed = cfg.Seed + int64(i)
					build = index.NewHNSWBuilder(hcfg)
				} else {
					var err error
					build, err = index.BuilderFor(cfg.LocalIndex)
					if err != nil {
						errs[i] = err
						continue
					}
				}
				l, err := build(res.Partitions[i], cfg.Metric, 1)
				if err != nil {
					errs[i] = err
					continue
				}
				e.parts[i] = l
			}
		}()
	}
	for i := 0; i < cfg.Partitions; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if cfg.Frozen {
		if err := e.Freeze(hnsw.FreezeOptions{SQ8: cfg.SQ8, RerankK: cfg.RerankK}); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Dim returns the vector dimensionality.
func (e *Engine) Dim() int { return e.dim }

// Partitions returns the partition count.
func (e *Engine) Partitions() int {
	_, parts := e.view()
	return len(parts)
}

// Tree exposes the routing tree.
func (e *Engine) Tree() *vptree.PartitionTree {
	t, _ := e.view()
	return t
}

// Len returns the total number of indexed vectors.
func (e *Engine) Len() int {
	_, parts := e.view()
	n := 0
	for _, p := range parts {
		n += p.Len()
	}
	return n
}

// Search returns the approximate k nearest neighbors of q, searching the
// configured number of partitions.
func (e *Engine) Search(q []float32, k int) ([]topk.Result, error) {
	rs, _, err := e.SearchFilteredStats(q, k, nil)
	return rs, err
}

// SearchStats is Search plus the work performed.
func (e *Engine) SearchStats(q []float32, k int) ([]topk.Result, index.Stats, error) {
	return e.SearchFilteredStats(q, k, nil)
}

// FilterPredicate compiles a filter expression into an ID predicate
// over the engine's tag store. A nil/empty expression compiles to nil
// (match everything), which every layer below treats as the unfiltered
// search. The predicate is lock-free and safe for concurrent use. It
// reads each ID's current tags but resolves the filter's values once,
// here: a value no ID carried at this moment never matches through it,
// so build one per query, as the engine's own read paths do.
func (e *Engine) FilterPredicate(f *filter.Expr) func(int64) bool {
	if f.Empty() {
		return nil
	}
	tf := new(tagFilter)
	e.tags.compile(f, tf)
	tf.posts = nil // the predicate reads term lists only; do not pin the postings
	return tf.match
}

// SearchFiltered returns the approximate k nearest neighbors of q whose
// tags satisfy f; see SearchFilteredStats.
func (e *Engine) SearchFiltered(q []float32, k int, f *filter.Expr) ([]topk.Result, error) {
	rs, _, err := e.SearchFilteredStats(q, k, f)
	return rs, err
}

// SearchFilteredStats is SearchFiltered plus the work performed. It is
// the engine's one read path (Algorithms 3-4): route q to its
// partitions, run one local search per partition, merge. A nil or empty
// f is the unfiltered search. Under a filter the tag postings are
// counted first: when the candidates are no more than the rows the
// beam's work is worth (scanBeatsBeam), their rows are scored exactly
// across every partition and routing does not run; otherwise the
// predicate rides along in the beam. Either way only live rows are
// scored, so a deleted or superseded row never takes a place in the k.
func (e *Engine) SearchFilteredStats(q []float32, k int, f *filter.Expr) ([]topk.Result, index.Stats, error) {
	if len(q) != e.dim {
		return nil, index.Stats{}, fmt.Errorf("core: query dim %d, index dim %d", len(q), e.dim)
	}
	if k <= 0 {
		k = e.cfg.K
	}
	tree, parts := e.view()
	var (
		keep  func(int64) bool
		lists [][]topk.Result
		total index.Stats
	)
	if !f.Empty() {
		sc := planPool.Get().(*planScratch)
		defer sc.release()
		e.tags.compile(f, &sc.tf)
		e.plan.candidates.Add(int64(sc.tf.count))
		if e.scanBeatsBeam(sc.tf.count, parts, k) {
			if rs, scored, ok := e.scanCandidates(q, k, sc, parts); ok {
				lists, total = [][]topk.Result{rs}, index.Stats{DistComps: scored}
			}
		}
		if lists != nil {
			e.plan.scans.Add(1)
		} else {
			e.plan.beams.Add(1)
			keep = sc.tf.match
		}
	}
	if lists == nil {
		var err error
		if lists, total, err = e.beam(q, k, keep, tree, parts); err != nil {
			return nil, total, err
		}
	}
	return topk.Merge(k, lists...), total, nil
}

// beam routes q and runs one local search per routed partition, keep
// (nil for none) riding along in each. Every partition's dead rows are
// read once, before the first search, so the query sees one moment of
// the engine's upserts (see vec.Dead).
func (e *Engine) beam(q []float32, k int, keep func(int64) bool, tree *vptree.PartitionTree, parts []index.Local) ([][]topk.Result, index.Stats, error) {
	var (
		routes []vptree.Route
		lists  [][]topk.Result
		total  index.Stats
		buf    [16]vec.DeadBits
	)
	dead := buf[:0]
	for _, p := range parts {
		dead = append(dead, p.Dead().Bits())
	}
	home := -1
	if e.cfg.Routing == RouteAdaptive {
		// Search home first, then widen to the ball of the current k-th
		// admitted distance. The admitted k-th distance is never smaller
		// than the unfiltered one, so the ball — and hence the route
		// set — is conservative (correct, possibly wider).
		home = tree.Home(q)
		first, st, err := parts[home].SearchFiltered(q, k, keep, dead[home])
		if err != nil {
			return nil, st, err
		}
		lists, total = append(lists, first), st
		if len(first) > 0 {
			routes = tree.RouteBall(q, first[len(first)-1].Dist)
		} else {
			routes = tree.RouteAll(q)
		}
	} else {
		routes = tree.RouteTop(q, e.cfg.NProbe)
	}
	for _, rt := range routes {
		if rt.Partition == home {
			continue
		}
		rs, st, err := parts[rt.Partition].SearchFiltered(q, k, keep, dead[rt.Partition])
		if err != nil {
			return nil, total, err
		}
		total = addStats(total, st)
		lists = append(lists, rs)
	}
	return lists, total, nil
}

func addStats(a, b index.Stats) index.Stats {
	return index.Stats{
		DistComps:  a.DistComps + b.DistComps,
		Hops:       a.Hops + b.Hops,
		QuantComps: a.QuantComps + b.QuantComps,
		Reranked:   a.Reranked + b.Reranked,
	}
}

// SearchBatch answers all queries using a pool of nThreads workers
// (default GOMAXPROCS) — the single-node equivalent of the batched
// throughput mode the paper targets.
func (e *Engine) SearchBatch(queries *vec.Dataset, k, nThreads int) ([][]topk.Result, error) {
	return e.SearchBatchFiltered(context.Background(), queries, k, nil, nThreads)
}

// SearchBatchContext is SearchBatch with cancellation; see
// SearchBatchFiltered.
func (e *Engine) SearchBatchContext(ctx context.Context, queries *vec.Dataset, k, nThreads int) ([][]topk.Result, error) {
	return e.SearchBatchFiltered(ctx, queries, k, nil, nThreads)
}

// SearchBatchFiltered answers all queries under one filter (nil for
// none) using a pool of nThreads workers. Once ctx is done, remaining
// queries are skipped, the pool drains, and ctx.Err() is returned.
// Queries already being searched run to completion (local HNSW searches
// are short); this is the entry point the serving gateway uses to bound
// a coalesced batch by its requests' deadlines.
func (e *Engine) SearchBatchFiltered(ctx context.Context, queries *vec.Dataset, k int, f *filter.Expr, nThreads int) ([][]topk.Result, error) {
	if queries.Dim != e.dim {
		return nil, fmt.Errorf("core: query dim %d, index dim %d", queries.Dim, e.dim)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if nThreads <= 0 {
		nThreads = runtime.GOMAXPROCS(0)
	}
	out := make([][]topk.Result, queries.Len())
	errs := make([]error, queries.Len())
	var wg sync.WaitGroup
	work := make(chan int, nThreads*2)
	done := ctx.Done()
	for w := 0; w < nThreads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				select {
				case <-done:
					errs[i] = ctx.Err()
					continue // keep draining so the producer never blocks
				default:
				}
				out[i], errs[i] = e.SearchFiltered(queries.At(i), k, f)
			}
		}()
	}
	for i := 0; i < queries.Len(); i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SetNProbe adjusts the number of partitions searched per query.
func (e *Engine) SetNProbe(np int) {
	if np > 0 {
		if np > e.Partitions() {
			np = e.Partitions()
		}
		e.cfg.NProbe = np
	}
}

// SetEfSearch adjusts the beam width of every HNSW partition index
// (no-op for exact local indexes).
func (e *Engine) SetEfSearch(ef int) {
	_, parts := e.view()
	for _, p := range parts {
		if g, ok := index.HNSWGraph(p); ok {
			g.SetEfSearch(ef)
		}
	}
}

// LocalKind reports the local index algorithm in use.
func (e *Engine) LocalKind() string {
	_, parts := e.view()
	if len(parts) == 0 {
		return ""
	}
	return parts[0].Kind()
}

// PartitionGraph exposes partition p's HNSW graph, or false when p is
// out of range or the local index is not HNSW. The durability layer
// uses it to snapshot a partition for offline compaction; callers must
// not mutate the graph behind the engine's back.
func (e *Engine) PartitionGraph(p int) (*hnsw.Graph, bool) {
	_, parts := e.view()
	if p < 0 || p >= len(parts) {
		return nil, false
	}
	return index.HNSWGraph(parts[p])
}

// SwapPartition atomically replaces partition p's local index with l,
// whose row i holds what row kept[i] of the index it replaces held — a
// compaction's rebuild from the rows that were live when it began. Rows
// that died since are marked dead in l, the locator moves to l's row
// numbers, and the IDs whose rows l leaves out or holds dead are folded
// unless they have a live row elsewhere. Concurrent searches see either
// the old or the new index, never a mix; the old index keeps its dead
// bits, which never clear, so a search still holding it hides what it
// hid.
func (e *Engine) SwapPartition(p int, l index.Local, kept []uint32) error {
	if len(kept) != l.Len() {
		return fmt.Errorf("core: swap partition %d: %d rows, %d kept", p, l.Len(), len(kept))
	}
	// In frozen mode the replacement is re-frozen before it lands, so the
	// flat serving layout survives compaction. The O(n) freeze runs
	// before taking the write lock; a concurrent Freeze/Unfreeze changing
	// the mode underneath is benign (both wrapped and plain HNSW locals
	// serve correctly in either mode).
	e.swapMu.RLock()
	fz := e.freeze
	e.swapMu.RUnlock()
	if fz.on && !index.Frozen(l) {
		fl, err := index.Freeze(l, fz.opts)
		if err != nil {
			return fmt.Errorf("core: re-freezing swapped partition %d: %w", p, err)
		}
		l = fl
	}
	d := &e.dynamic
	d.mu.Lock()
	defer d.mu.Unlock()
	e.locateLocked()
	_, parts := e.view()
	if p < 0 || p >= len(parts) {
		return fmt.Errorf("core: swap partition %d out of range [0,%d)", p, len(parts))
	}
	old, rows := parts[p].Rows(), l.Rows()
	oldDead, dead := parts[p].Dead(), l.Dead()
	at := make([]int, old.Len()) // old row -> its row in l, -1 for none
	for r := range at {
		at[r] = -1
	}
	for i, r := range kept {
		if int(r) >= len(at) || rows.ID(i) != old.ID(int(r)) {
			return fmt.Errorf("core: swap partition %d: row %d does not hold row %d", p, i, r)
		}
		at[r] = i
	}
	var folded []int64
	for r, i := range at {
		switch {
		case !oldDead.Has(r) && i >= 0:
			d.slots[old.ID(r)] = slot{uint32(p), uint32(i)}
			continue
		case i >= 0:
			dead.Kill(i)
		case !oldDead.Has(r):
			delete(d.slots, old.ID(r)) // a live row l leaves out
		}
		folded = append(folded, old.ID(r))
	}
	e.swapMu.Lock()
	parts = append([]index.Local(nil), e.parts...)
	parts[p] = l
	e.parts = parts
	e.swapMu.Unlock()
	e.fold(folded)
	return nil
}

// engineMagic identifies the engine container format.
const engineMagic = "ANNE"

// deadMagic opens the dead-row section that follows the partition
// graphs in an image of an engine with dead rows: for each partition, a
// row count and then its dead rows, ascending, all uint32. An image
// without it has none; a reader that predates the section stops at the
// last graph and never looks.
const deadMagic = "DEAD"

// Save serialises the engine (routing tree, all partition indexes and,
// when any row is dead, which ones). The partition graphs must not be
// mutated during the call; concurrent searches are fine.
func (e *Engine) Save(w io.Writer) error {
	tree, parts := e.view()
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(engineMagic); err != nil {
		return err
	}
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(e.dim))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(parts)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(e.cfg.NProbe))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	// Length-prefix the gob blob: gob decoders read ahead, so the tree
	// must be framed to keep the following index streams intact.
	var tbuf bytes.Buffer
	if err := tree.Encode(&tbuf); err != nil {
		return err
	}
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(tbuf.Len()))
	if _, err := bw.Write(lenb[:]); err != nil {
		return err
	}
	if _, err := bw.Write(tbuf.Bytes()); err != nil {
		return err
	}
	for i, p := range parts {
		g, ok := index.HNSWGraph(p)
		if !ok {
			return fmt.Errorf("core: Save supports HNSW local indexes only (partition %d is %q)", i, p.Kind())
		}
		if _, err := g.WriteTo(bw); err != nil {
			return err
		}
	}
	// The dead-row section goes out only when a row is dead, so the image
	// of an engine that never deleted or replaced a row is what it was.
	sec, dead := []byte(deadMagic), 0
	for _, p := range parts {
		rows := p.Dead().Rows()
		dead += len(rows)
		sec = binary.LittleEndian.AppendUint32(sec, uint32(len(rows)))
		for _, row := range rows {
			sec = binary.LittleEndian.AppendUint32(sec, row)
		}
	}
	if dead > 0 {
		if _, err := bw.Write(sec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readDead reads the dead-row section, if the image has one, and marks
// its rows dead. Rows past the end of their partition or out of
// ascending order are corruption, and so is anything after the graphs
// that is not the section.
func (e *Engine) readDead(r io.Reader) error {
	var word [4]byte
	if _, err := io.ReadFull(r, word[:]); err == io.EOF {
		return nil // no dead rows
	} else if err != nil {
		return loadErr("dead rows", err)
	}
	if string(word[:]) != deadMagic {
		return fmt.Errorf("core: corrupt engine file: %q after the partitions, want the dead-row section", word)
	}
	next := func() (uint32, error) {
		if _, err := io.ReadFull(r, word[:]); err != nil {
			return 0, loadErr("dead rows", err)
		}
		return binary.LittleEndian.Uint32(word[:]), nil
	}
	for p, l := range e.parts {
		n, err := next()
		if err != nil {
			return err
		}
		if int(n) > l.Len() {
			return fmt.Errorf("core: corrupt engine file: %d dead rows in partition %d of %d rows", n, p, l.Len())
		}
		for i, prev := 0, -1; i < int(n); i++ {
			row, err := next()
			if err != nil {
				return err
			}
			if int(row) <= prev || int(row) >= l.Len() {
				return fmt.Errorf("core: corrupt engine file: dead row %d of partition %d (%d rows) after row %d", row, p, l.Len(), prev)
			}
			l.Dead().Kill(int(row))
			prev = int(row)
		}
	}
	return nil
}

// loadErr wraps a section-read failure with context, turning the bare
// io.EOF a truncated file produces mid-structure into the unambiguous
// io.ErrUnexpectedEOF so callers see "engine file truncated reading X"
// instead of EOF soup.
func loadErr(section string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("core: engine file truncated or corrupt reading %s: %w", section, err)
}

// maxEnginePartitions bounds the partition-count header field so a
// corrupt file fails fast instead of driving a near-endless decode loop.
const maxEnginePartitions = 1 << 20

// LoadEngine reads an engine saved with Save. Truncated or corrupt
// inputs return descriptive errors naming the section that failed.
func LoadEngine(r io.Reader) (*Engine, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("core: engine file is empty: %w", io.ErrUnexpectedEOF)
		}
		return nil, loadErr("magic", err)
	}
	if string(magic) != engineMagic {
		return nil, fmt.Errorf("core: bad engine magic %q (want %q): not an annbuild index file", magic, engineMagic)
	}
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, loadErr("header", err)
	}
	dim := int(binary.LittleEndian.Uint32(hdr[0:]))
	np := int(binary.LittleEndian.Uint32(hdr[4:]))
	nprobe := int(binary.LittleEndian.Uint32(hdr[8:]))
	if dim <= 0 {
		return nil, fmt.Errorf("core: corrupt engine header: dimension %d", dim)
	}
	if np <= 0 || np > maxEnginePartitions {
		return nil, fmt.Errorf("core: corrupt engine header: partition count %d", np)
	}
	var lenb [4]byte
	if _, err := io.ReadFull(br, lenb[:]); err != nil {
		return nil, loadErr("routing-tree length", err)
	}
	tblob := make([]byte, binary.LittleEndian.Uint32(lenb[:]))
	if _, err := io.ReadFull(br, tblob); err != nil {
		return nil, loadErr("routing tree", err)
	}
	tree, err := vptree.ReadPartitionTree(bytes.NewReader(tblob))
	if err != nil {
		return nil, fmt.Errorf("core: decoding routing tree: %w", err)
	}
	e := &Engine{
		tree:  tree,
		parts: make([]index.Local, np),
		dim:   dim,
		tags:  newTagStore(),
		lex:   lexical.NewIndex(lexical.Config{}),
	}
	for i := range e.parts {
		g, err := hnsw.ReadFrom(br)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("core: engine file truncated or corrupt reading partition %d of %d: %w", i, np, err)
		}
		e.parts[i] = index.WrapHNSW(g)
	}
	if err := e.readDead(br); err != nil {
		return nil, err
	}
	e.cfg = DefaultConfig(np)
	e.cfg.NProbe = nprobe
	e.cfg.Metric = tree.Metric
	if err := e.cfg.fill(dim); err != nil {
		return nil, err
	}
	return e, nil
}
