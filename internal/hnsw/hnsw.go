// Package hnsw implements Hierarchical Navigable Small World graphs
// (Malkov & Yashunin, TPAMI 2018), the sequential approximate k-NN index
// the paper uses to search inside each data partition.
//
// The implementation follows the reference algorithms of the paper:
//
//   - exponentially distributed level assignment (skip-list style
//     promotion, Section III-A of the CLUSTER paper);
//   - greedy descent through the upper layers (Algorithm 2, ef=1);
//   - beam search with dynamic candidate list of width ef on the target
//     layers (Algorithm 2);
//   - neighbor selection by the diversity heuristic with the
//     keepPrunedConnections extension (Algorithm 4);
//   - bidirectional linking with per-layer degree bounds M / Mmax / Mmax0.
//
// Index construction is safe for concurrent Add calls, mirroring the
// multi-threaded OpenMP build in the paper. Concurrency is handled with a
// snapshot discipline: every operation captures the node and vector slice
// headers under a short RWMutex section and then works lock-free against
// that snapshot, ignoring nodes that were appended afterwards (they will
// be wired up by their own inserts). Per-node mutexes guard neighbor
// lists.
package hnsw

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/topk"
	"repro/internal/vec"
)

// Config holds the HNSW construction and search parameters.
type Config struct {
	// M is the number of links created for a new node per layer; the
	// paper sweeps M over {8,16,32,64} in Figure 6. Default 16.
	M int
	// Mmax0 bounds the degree on layer 0 (default 2*M); Mmax bounds the
	// degree on the upper layers (default M).
	Mmax0 int
	Mmax  int
	// EfConstruction is the beam width used while building (default 200).
	EfConstruction int
	// EfSearch is the default beam width for queries (default 64); Search
	// always uses max(EfSearch, k).
	EfSearch int
	// Metric selects the distance. L2 is evaluated as squared L2
	// internally (ordering-equivalent) with distances fixed up on return.
	Metric vec.Metric
	// Seed seeds level assignment; builds with equal seeds and a serial
	// insertion order are reproducible.
	Seed int64
	// LevelMult is the level-assignment multiplier; 0 means 1/ln(M).
	LevelMult float64
	// KeepPruned enables the keepPrunedConnections extension of the
	// neighbor-selection heuristic (on by default via DefaultConfig).
	KeepPruned bool
	// Heuristic selects diversity-based neighbor selection (Algorithm 4)
	// instead of the simple closest-M rule. The ablation benchmark
	// toggles this.
	Heuristic bool
	// Flat disables the layer hierarchy, turning the index into a plain
	// Navigable Small World graph (Malkov et al. 2014) — the
	// predecessor design whose O(log^2 n) search the hierarchy improves
	// to O(log n) (Section III-A of the CLUSTER paper). The nsw
	// comparison benchmark toggles this.
	Flat bool
}

// DefaultConfig returns the configuration used throughout the paper's
// experiments (M=16 default, heuristic selection on).
func DefaultConfig(metric vec.Metric) Config {
	return Config{
		M:              16,
		EfConstruction: 200,
		EfSearch:       64,
		Metric:         metric,
		Seed:           1,
		KeepPruned:     true,
		Heuristic:      true,
	}
}

func (c *Config) fill() error {
	if c.M <= 1 {
		return fmt.Errorf("hnsw: M must be >1, got %d", c.M)
	}
	if c.Mmax == 0 {
		c.Mmax = c.M
	}
	if c.Mmax0 == 0 {
		c.Mmax0 = 2 * c.M
	}
	if c.EfConstruction < c.M {
		c.EfConstruction = 2 * c.M
	}
	if c.EfSearch <= 0 {
		c.EfSearch = 64
	}
	if c.LevelMult == 0 {
		c.LevelMult = 1 / math.Log(float64(c.M))
	}
	return nil
}

// node is one graph vertex. links[l] holds the neighbor node indices at
// layer l; len(links) == level+1.
type node struct {
	mu    sync.Mutex
	links [][]uint32
}

// Graph is an HNSW index over an internally owned vec.Dataset. Node i of
// the graph is row i of the dataset; results are reported with the rows'
// global IDs.
type Graph struct {
	cfg   Config
	dist  vec.DistFunc
	sqrtL bool // report sqrt of internal distance (L2 via SquaredL2)

	// epMu guards data, nodes, entry, maxLevel and empty. Operations copy
	// the slice headers under the lock and then run lock-free against the
	// copies.
	epMu     sync.RWMutex
	data     *vec.Dataset
	nodes    []*node
	entry    uint32
	maxLevel int
	empty    bool

	rngMu sync.Mutex
	rng   *rand.Rand

	// dead marks the rows searches skip; inserts still walk them.
	dead vec.Dead
}

// snap is an immutable view of the graph as of some moment: the first
// len(nodes) vertices and their vectors. Slice contents only ever grow,
// so rows < len(nodes) are stable. Freeze relies on this: a Frozen
// reads those rows in place for as long as it lives, including after a
// later Add has moved the graph to a larger backing array.
type snap struct {
	dim   int
	data  []float32
	ids   []int64
	nodes []*node
	entry uint32
	maxL  int
}

func (s *snap) vec(i uint32) []float32 {
	return s.data[int(i)*s.dim : (int(i)+1)*s.dim]
}

// Stats reports the work performed by one search or accumulated over a
// build; the distributed cost model consumes these.
type Stats struct {
	DistComps  int64 // number of full-precision distance evaluations
	Hops       int64 // number of graph expansions (nodes popped)
	QuantComps int64 // number of quantized (SQ8) distance evaluations
	Reranked   int64 // candidates re-ranked at full precision
}

// Add combines two stats values.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		DistComps:  s.DistComps + o.DistComps,
		Hops:       s.Hops + o.Hops,
		QuantComps: s.QuantComps + o.QuantComps,
		Reranked:   s.Reranked + o.Reranked,
	}
}

// New creates an empty index of the given dimension.
func New(dim int, cfg Config) (*Graph, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if dim <= 0 {
		return nil, fmt.Errorf("hnsw: non-positive dimension %d", dim)
	}
	g := &Graph{
		cfg:   cfg,
		data:  vec.NewDataset(dim, 0),
		empty: true,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	switch cfg.Metric {
	case vec.L2:
		g.dist = vec.SquaredL2Distance
		g.sqrtL = true
	default:
		g.dist = cfg.Metric.Func()
	}
	return g, nil
}

// Build constructs an index over ds using nThreads concurrent inserters
// (nThreads<=1 builds serially and reproducibly). ds is copied.
func Build(ds *vec.Dataset, cfg Config, nThreads int) (*Graph, Stats, error) {
	g, err := New(ds.Dim, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	st, err := g.AddAll(ds, nThreads)
	return g, st, err
}

// Len returns the number of indexed vectors.
func (g *Graph) Len() int {
	g.epMu.RLock()
	defer g.epMu.RUnlock()
	return g.data.Len()
}

// Dim returns the vector dimension.
func (g *Graph) Dim() int { return g.data.Dim }

// Config returns the (filled-in) configuration.
func (g *Graph) Config() Config { return g.cfg }

// SetEfSearch changes the default query beam width.
func (g *Graph) SetEfSearch(ef int) {
	if ef > 0 {
		g.cfg.EfSearch = ef
	}
}

// Data exposes the underlying dataset. Callers must not mutate it and
// must not call Data concurrently with Add.
func (g *Graph) Data() *vec.Dataset { return g.data }

// DataSnapshot returns a point-in-time view of the indexed vectors that
// is safe to read concurrently with Add: the slice headers are captured
// under the lock, and committed rows are never moved by later appends.
// Callers must not mutate the view.
func (g *Graph) DataSnapshot() *vec.Dataset {
	g.epMu.RLock()
	defer g.epMu.RUnlock()
	n := g.data.Len()
	return &vec.Dataset{
		Dim:  g.data.Dim,
		Data: g.data.Data[: n*g.data.Dim : n*g.data.Dim],
		IDs:  g.data.IDs[:n:n],
	}
}

// Dead returns the set of rows searches no longer return. A row stays
// in the graph, and inserts keep linking through it, until the graph is
// rebuilt without it.
func (g *Graph) Dead() *vec.Dead { return &g.dead }

// EfSearch returns the current default query beam width.
func (g *Graph) EfSearch() int { return g.cfg.EfSearch }

func (g *Graph) randomLevel() int {
	if g.cfg.Flat {
		return 0 // plain NSW: every node lives on the single layer
	}
	g.rngMu.Lock()
	u := g.rng.Float64()
	g.rngMu.Unlock()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Floor(-math.Log(u) * g.cfg.LevelMult))
}

func (g *Graph) snapshotLocked() snap {
	return snap{
		dim:   g.data.Dim,
		data:  g.data.Data,
		ids:   g.data.IDs,
		nodes: g.nodes,
		entry: g.entry,
		maxL:  g.maxLevel,
	}
}

// Add inserts one vector with the given global ID and returns the work
// performed. It is safe for concurrent use.
func (g *Graph) Add(v []float32, id int64) (Stats, error) {
	return g.AddAtLevel(v, id, g.NextLevel())
}

// NextLevel draws the level the next insert would be assigned from the
// index's seeded generator, without inserting. Durable ingestion draws
// the level first, logs it, and then calls AddAtLevel, so that replaying
// the log reproduces a structurally identical graph.
func (g *Graph) NextLevel() int { return g.randomLevel() }

// AddAtLevel inserts one vector at a caller-chosen level. It is the
// replay half of the NextLevel/AddAtLevel pair; levels recorded in a
// write-ahead log feed back through here so recovery is deterministic.
func (g *Graph) AddAtLevel(v []float32, id int64, level int) (Stats, error) {
	if len(v) != g.data.Dim {
		return Stats{}, fmt.Errorf("hnsw: vector dim %d, index dim %d", len(v), g.data.Dim)
	}
	if level < 0 {
		return Stats{}, fmt.Errorf("hnsw: negative level %d", level)
	}
	if g.cfg.Flat {
		level = 0
	}

	// Claim a node slot and capture a snapshot that includes it.
	g.epMu.Lock()
	idx := uint32(g.data.Len())
	g.data.Append(v, id)
	n := &node{links: make([][]uint32, level+1)}
	g.nodes = append(g.nodes, n)
	if g.empty {
		g.entry = idx
		g.maxLevel = level
		g.empty = false
		g.epMu.Unlock()
		return Stats{}, nil
	}
	s := g.snapshotLocked()
	g.epMu.Unlock()

	var st Stats
	q := s.vec(idx)
	w := g.walk(&s, q, nil, &st)

	// Greedy descent with ef=1 through layers above the node's level.
	cur := w.descend(s.entry, s.maxL, level)

	// Beam search and forward links on layers min(level,maxL)..0. The
	// back-links, which are what make the node reachable, wait until
	// every layer has its forward links: a search that descended onto
	// the node through an upper layer would otherwise start its layer-0
	// beam on a node with no layer-0 neighbors yet and return it alone.
	// Serial inserts build the same graph either way — a back-link on
	// layer l changes only layer-l lists, which no lower beam reads.
	top := min(level, s.maxL)
	selected := make([][]uint32, top+1)
	for l := top; l >= 0; l-- {
		cands := w.beam(cur, g.cfg.EfConstruction, l)
		// Drop self if discovered through a concurrent back-link.
		for i, c := range cands {
			if c.id == idx {
				cands = append(cands[:i], cands[i+1:]...)
				break
			}
		}
		selected[l] = g.selectNeighbors(&s, q, cands, g.cfg.M, &st)
		n.mu.Lock()
		n.links[l] = append(n.links[l][:0], selected[l]...)
		n.mu.Unlock()
		if len(cands) > 0 {
			cur = cands[0].id
		}
	}
	for l := top; l >= 0; l-- {
		for _, nb := range selected[l] {
			g.linkBack(&s, nb, idx, l, &st)
		}
	}

	if level > s.maxL {
		g.epMu.Lock()
		if level > g.maxLevel {
			g.maxLevel = level
			g.entry = idx
		}
		g.epMu.Unlock()
	}
	return st, nil
}

// AddAll inserts every row of ds using nThreads workers.
func (g *Graph) AddAll(ds *vec.Dataset, nThreads int) (Stats, error) {
	if ds.Dim != g.data.Dim {
		return Stats{}, fmt.Errorf("hnsw: dataset dim %d, index dim %d", ds.Dim, g.data.Dim)
	}
	if nThreads <= 1 {
		var total Stats
		for i := 0; i < ds.Len(); i++ {
			st, err := g.Add(ds.At(i), ds.ID(i))
			if err != nil {
				return total, err
			}
			total = total.Add(st)
		}
		return total, nil
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total Stats
		first error
	)
	work := make(chan int, nThreads*4)
	for w := 0; w < nThreads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local Stats
			for i := range work {
				st, err := g.Add(ds.At(i), ds.ID(i))
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					continue
				}
				local = local.Add(st)
			}
			mu.Lock()
			total = total.Add(local)
			mu.Unlock()
		}()
	}
	for i := 0; i < ds.Len(); i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	return total, first
}

// neighbors returns a copy of the links of node u at layer l, restricted
// to nodes that exist in the snapshot.
func (g *Graph) neighbors(s *snap, u uint32, l int) []uint32 {
	n := s.nodes[u]
	n.mu.Lock()
	var out []uint32
	if l < len(n.links) {
		for _, x := range n.links[l] {
			if int(x) < len(s.nodes) {
				out = append(out, x)
			}
		}
	}
	n.mu.Unlock()
	return out
}

// linkBack adds "to" into the neighbor list of u at layer l, shrinking
// with the selection rule if the degree bound is exceeded.
func (g *Graph) linkBack(s *snap, u, to uint32, l int, st *Stats) {
	bound := g.cfg.Mmax
	if l == 0 {
		bound = g.cfg.Mmax0
	}
	n := s.nodes[u]
	n.mu.Lock()
	defer n.mu.Unlock()
	if l >= len(n.links) {
		return
	}
	for _, x := range n.links[l] {
		if x == to {
			return
		}
	}
	if len(n.links[l]) < bound {
		n.links[l] = append(n.links[l], to)
		return
	}
	// Over-full: re-select among current neighbors + the new one. Links
	// may reference nodes newer than our snapshot; their vectors are
	// nevertheless stable (appends never move committed rows), but we
	// must read them through the owner's current data. Restrict to the
	// snapshot for safety; newer links are kept unconditionally.
	base := s.vec(u)
	cands := make([]cand, 0, len(n.links[l])+1)
	var newer []uint32
	for _, x := range n.links[l] {
		if int(x) >= len(s.nodes) {
			newer = append(newer, x)
			continue
		}
		cands = append(cands, cand{x, g.dist(base, s.vec(x))})
		st.DistComps++
	}
	cands = append(cands, cand{to, g.dist(base, s.vec(to))})
	st.DistComps++
	sortCands(cands)
	keep := bound - len(newer)
	if keep < 1 {
		keep = 1
	}
	sel := g.selectNeighborsBase(s, base, cands, keep, st)
	n.links[l] = append(sel, newer...)
}

type cand struct {
	id   uint32
	dist float32
}

func sortCands(cs []cand) {
	// insertion sort: candidate lists are short (<= ef or Mmax+1)
	for i := 1; i < len(cs); i++ {
		c := cs[i]
		j := i - 1
		for j >= 0 && (cs[j].dist > c.dist || (cs[j].dist == c.dist && cs[j].id > c.id)) {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = c
	}
}

// selectNeighbors picks up to m nodes from the sorted candidate list,
// judged against query point q.
func (g *Graph) selectNeighbors(s *snap, q []float32, cands []cand, m int, st *Stats) []uint32 {
	return g.selectNeighborsBase(s, q, cands, m, st)
}

func (g *Graph) selectNeighborsBase(s *snap, base []float32, cands []cand, m int, st *Stats) []uint32 {
	if !g.cfg.Heuristic {
		out := make([]uint32, 0, m)
		for _, c := range cands {
			if len(out) == m {
				break
			}
			out = append(out, c.id)
		}
		return out
	}
	return g.selectHeuristic(s, cands, m, st)
}

// selectHeuristic is Algorithm 4 of Malkov & Yashunin: keep a candidate
// only if it is closer to the query than to every already-kept neighbor,
// which spreads links across directions; optionally backfill with the
// pruned candidates.
func (g *Graph) selectHeuristic(s *snap, cands []cand, m int, st *Stats) []uint32 {
	kept := make([]cand, 0, m)
	var pruned []cand
	for _, c := range cands {
		if len(kept) == m {
			break
		}
		ok := true
		cv := s.vec(c.id)
		for _, k := range kept {
			st.DistComps++
			if g.dist(cv, s.vec(k.id)) < c.dist {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c)
		} else if g.cfg.KeepPruned {
			pruned = append(pruned, c)
		}
	}
	for _, c := range pruned {
		if len(kept) == m {
			break
		}
		kept = append(kept, c)
	}
	out := make([]uint32, len(kept))
	for i, c := range kept {
		out[i] = c.id
	}
	return out
}

// searchCtx holds the per-search visited-set, reused across searches via
// a pool; the epoch trick avoids clearing the array between searches.
type searchCtx struct {
	visited []uint32
	epoch   uint32
}

func (c *searchCtx) reset(n int) {
	if len(c.visited) < n {
		c.visited = append(c.visited, make([]uint32, n-len(c.visited))...)
	}
	c.epoch++
	if c.epoch == 0 { // wrapped: clear
		for i := range c.visited {
			c.visited[i] = 0
		}
		c.epoch = 1
	}
}

func (c *searchCtx) visit(u uint32) bool {
	if c.visited[u] == c.epoch {
		return false
	}
	c.visited[u] = c.epoch
	return true
}

var ctxPool = sync.Pool{New: func() any { return &searchCtx{} }}

// walk is the one traversal every search and every insert runs: greedy
// descent through the upper layers, then a beam on the target layer. It
// knows exactly three things about the layout it walks — how to fetch a
// node's neighbors, how to score a node against the query, and which
// nodes the caller admits — so the dynamic graph, the frozen float
// layout and the frozen SQ8 code slab all share it.
type walk struct {
	// neighbors returns the links of node u on layer l: the locked
	// per-node list restricted to the snapshot (Graph) or a range of
	// the CSR slab (Frozen).
	neighbors func(u uint32, l int) []uint32
	// score returns the distance from the query to node u and bumps the
	// counter of its domain: st.DistComps for the float32 kernel,
	// st.QuantComps for the SQ8 byte kernel.
	score func(u uint32) float32
	// keep gates admission into the beam's result set on the node's
	// global ID; nil admits every node. It is called at most once per
	// visited node.
	keep func(id int64) bool
	// dead is the layout's dead-row view, read before a node's ID: a
	// dead node is never admitted. Nil admits every node.
	dead vec.DeadBits
	ids  []int64 // global ID per node; its length sizes the visited set
	st   *Stats  // Hops land here; score bumps the rest
}

// admits reports whether node u may enter the result set.
func (w *walk) admits(u uint32) bool {
	return !w.dead.Has(int(u)) && (w.keep == nil || w.keep(w.ids[u]))
}

// descend scores entry, then walks greedily (ef=1) down layers
// top..stop+1, on each until no neighbor improves. The upper layers are
// never filtered — they only route the descent, and constraining them
// would strand the search far from the filtered region.
func (w *walk) descend(entry uint32, top, stop int) uint32 {
	cur, curDist := entry, w.score(entry)
	for l := top; l > stop; l-- {
		for changed := true; changed; {
			changed = false
			w.st.Hops++
			for _, nb := range w.neighbors(cur, l) {
				if d := w.score(nb); d < curDist {
					curDist, cur = d, nb
					changed = true
				}
			}
		}
	}
	return cur
}

// beam is Algorithm 2: beam search of width ef on layer l, returning up
// to ef admitted candidates sorted by ascending distance. Every visited
// node joins the frontier under the usual bound test — exploration is
// driven by the geometry of the graph, not by the filter — but only
// admitted nodes count toward the ef result set and therefore toward
// the termination bound. At low selectivity the collector fills slowly,
// which keeps the bound wide and forces the beam to keep exploring
// until it has found ef matching points (or exhausted the connected
// component): strictly stronger than post-filtering a top-k list.
func (w *walk) beam(entry uint32, ef, l int) []cand {
	ctx := ctxPool.Get().(*searchCtx)
	ctx.reset(len(w.ids))
	var frontier topk.MinQueue
	results := topk.New(ef)

	// The beam owns its entry distance: the entry is re-scored here even
	// when descend just scored it, on every layout, so work stats — not
	// just results — agree across layouts.
	d := w.score(entry)
	ctx.visit(entry)
	frontier.PushMin(int64(entry), d)
	if w.admits(entry) {
		results.Push(int64(entry), d)
	}

	for frontier.Len() > 0 {
		c := frontier.PopMin()
		if c.Dist > results.Bound() {
			break
		}
		w.st.Hops++
		for _, nb := range w.neighbors(uint32(c.ID), l) {
			if !ctx.visit(nb) {
				continue
			}
			dn := w.score(nb)
			if !results.Full() || dn < results.Bound() {
				frontier.PushMin(int64(nb), dn)
				if w.admits(nb) {
					results.Push(int64(nb), dn)
				}
			}
		}
	}
	ctxPool.Put(ctx)
	rs := results.Results()
	out := make([]cand, len(rs))
	for i, r := range rs {
		out[i] = cand{uint32(r.ID), r.Dist}
	}
	return out
}

// walk binds the traversal to a snapshot of the dynamic graph, scoring
// with the float32 kernel against the dataset.
func (g *Graph) walk(s *snap, q []float32, keep func(int64) bool, st *Stats) walk {
	return walk{
		neighbors: func(u uint32, l int) []uint32 { return g.neighbors(s, u, l) },
		score: func(u uint32) float32 {
			st.DistComps++
			return g.dist(q, s.vec(u))
		},
		keep: keep,
		ids:  s.ids,
		st:   st,
	}
}

// ErrEmpty is returned when searching an index with no vectors.
var ErrEmpty = errors.New("hnsw: empty index")

// checkQuery is the argument validation every search shares.
func checkQuery(n, dim int, q []float32, k int) error {
	if n == 0 {
		return ErrEmpty
	}
	if len(q) != dim {
		return fmt.Errorf("hnsw: query dim %d, index dim %d", len(q), dim)
	}
	if k <= 0 {
		return fmt.Errorf("hnsw: non-positive k %d", k)
	}
	return nil
}

// report converts the best k internal candidates (node indices,
// internal-metric distances) into results with global IDs and
// user-metric distances (true L2, not squared).
func report(cands []cand, k int, ids []int64, sqrtL bool) []topk.Result {
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]topk.Result, len(cands))
	for i, c := range cands {
		d := c.dist
		if sqrtL {
			d = float32(math.Sqrt(float64(d)))
		}
		out[i] = topk.Result{ID: ids[c.id], Dist: d}
	}
	return out
}

// Search returns the approximate k nearest neighbors of q using the
// configured EfSearch beam width.
func (g *Graph) Search(q []float32, k int) ([]topk.Result, Stats, error) {
	return g.SearchEfFiltered(q, k, g.cfg.EfSearch, nil, g.dead.Bits())
}

// SearchEf returns the approximate k nearest neighbors using beam width
// max(ef, k). Results carry global IDs and distances in the configured
// metric (true L2, not squared).
func (g *Graph) SearchEf(q []float32, k, ef int) ([]topk.Result, Stats, error) {
	return g.SearchEfFiltered(q, k, ef, nil, g.dead.Bits())
}

// SearchFiltered returns the approximate k nearest neighbors of q whose
// global ID satisfies keep, using the configured EfSearch beam width.
func (g *Graph) SearchFiltered(q []float32, k int, keep func(int64) bool) ([]topk.Result, Stats, error) {
	return g.SearchEfFiltered(q, k, g.cfg.EfSearch, keep, g.dead.Bits())
}

// SearchEfFiltered is SearchEf with filter pushdown: the predicate is
// evaluated during traversal and only matching nodes are admitted into
// the result set, while the frontier still expands through non-matching
// nodes so the search can tunnel across regions of the graph that the
// filter excludes (see walk.beam). keep==nil is the unfiltered search;
// a non-nil keep must be safe for concurrent use if the graph is
// searched from multiple goroutines. The rows in dead, a view of Dead
// taken before the call, are tunnelled through the same way and never
// admitted: a search over several graphs takes all its views first, so
// an upsert that moved an ID between them shows it the new row or the
// old one, never neither.
func (g *Graph) SearchEfFiltered(q []float32, k, ef int, keep func(int64) bool, dead vec.DeadBits) ([]topk.Result, Stats, error) {
	g.epMu.RLock()
	s := g.snapshotLocked()
	g.epMu.RUnlock()

	if err := checkQuery(len(s.nodes), s.dim, q, k); err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	w := g.walk(&s, q, keep, &st)
	w.dead = dead
	cands := w.beam(w.descend(s.entry, s.maxL, 0), max(ef, k), 0)
	return report(cands, k, s.ids, g.sqrtL), st, nil
}

// MaxLevel returns the current top layer of the hierarchy.
func (g *Graph) MaxLevel() int {
	g.epMu.RLock()
	defer g.epMu.RUnlock()
	return g.maxLevel
}

// GraphStats summarises the structure of the index.
type GraphStats struct {
	Nodes     int
	MaxLevel  int
	Edges     int64   // directed edges over all layers
	AvgDegree float64 // layer-0 average out-degree
}

// Structure computes structural statistics; O(nodes + edges).
func (g *Graph) Structure() GraphStats {
	g.epMu.RLock()
	nodes := g.nodes
	maxL := g.maxLevel
	g.epMu.RUnlock()
	gs := GraphStats{Nodes: len(nodes), MaxLevel: maxL}
	var deg0 int64
	for _, n := range nodes {
		n.mu.Lock()
		for l, ls := range n.links {
			gs.Edges += int64(len(ls))
			if l == 0 {
				deg0 += int64(len(ls))
			}
		}
		n.mu.Unlock()
	}
	if gs.Nodes > 0 {
		gs.AvgDegree = float64(deg0) / float64(gs.Nodes)
	}
	return gs
}
