// Package index defines the pluggable local-index abstraction the paper
// calls out as its extensibility point: "Our approach is extensible in
// that any algorithm can be used for local indexing and searching
// instead of HNSW" (Section VI).
//
// A Local index answers k-NN queries inside one partition. Four
// implementations ship:
//
//	hnsw  - the paper's choice (approximate, fast, dimension-robust)
//	vp    - exact vantage point tree (metric-agnostic)
//	kd    - exact KD tree (the PANDA building block; L2 only)
//	flat  - exact linear scan (always correct; the small-partition
//	        fallback PANDA calls "SIMD optimised buckets")
//
// The single-process engine accepts any of them via Config.LocalIndex;
// the ablate-local experiment compares them under identical routing.
// Every engine search path — plain top-k, filtered search and the vector
// leg of hybrid retrieval (DESIGN §11) — goes through this abstraction,
// so swapping the local index never changes which query shapes a
// deployment can serve. Every Local answers a filtered search itself:
// the HNSW-backed ones push the predicate into the beam, the exact ones
// scan their matching rows, so a filter never shortens a result list
// that has k matching points to fill it.
package index

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hnsw"
	"repro/internal/kdtree"
	"repro/internal/topk"
	"repro/internal/vec"
	"repro/internal/vptree"
)

// Stats is the work performed by one local search.
type Stats struct {
	DistComps  int64
	Hops       int64 // graph expansions or tree nodes visited
	QuantComps int64 // quantized (SQ8) distance evaluations (frozen path)
	Reranked   int64 // candidates re-ranked at full precision (frozen path)
}

// Local is a per-partition k-NN index.
type Local interface {
	// SearchFiltered returns up to k nearest neighbors of q, with global
	// IDs, whose row is not in dead and whose global ID satisfies keep,
	// evaluating both while it searches, not on a finished top-k. dead is
	// a view of Dead the caller took (the engine takes every partition's
	// before a query touches any); a nil keep admits every ID. keep must
	// be safe for concurrent use when the index is searched from several
	// goroutines.
	SearchFiltered(q []float32, k int, keep func(int64) bool, dead vec.DeadBits) ([]topk.Result, Stats, error)
	// Rows returns a point-in-time view of the indexed vectors in row
	// order, safe to read while the index takes inserts. The engine's
	// candidate scan scores rows out of it; callers must not modify it.
	Rows() *vec.Dataset
	// Dead is the set of rows no search returns, indexed like Rows. The
	// engine marks a row dead when its ID is deleted or upserted again.
	Dead() *vec.Dead
	// Len returns the number of indexed vectors, dead rows included.
	Len() int
	// Kind returns the registry name of the implementation.
	Kind() string
}

// Builder constructs a Local over a partition. threads hints at
// build-time parallelism (only HNSW uses it).
type Builder func(ds *vec.Dataset, metric vec.Metric, threads int) (Local, error)

// BuilderFor returns the builder registered under name. Supported:
// "hnsw" (optionally configured via NewHNSWBuilder), "vp", "kd", "flat".
func BuilderFor(name string) (Builder, error) {
	switch name {
	case "", "hnsw":
		return NewHNSWBuilder(hnsw.Config{}), nil
	case "vp":
		return buildVP, nil
	case "kd":
		return buildKD, nil
	case "flat":
		return buildFlat, nil
	}
	return nil, fmt.Errorf("index: unknown local index %q", name)
}

// Names lists the registered local index kinds.
func Names() []string {
	ns := []string{"flat", "hnsw", "kd", "vp"}
	sort.Strings(ns)
	return ns
}

// --- HNSW adapter ---

type hnswLocal struct{ g *hnsw.Graph }

// NewHNSWBuilder returns a Builder using the given HNSW configuration
// (zero value = hnsw.DefaultConfig for the metric).
func NewHNSWBuilder(cfg hnsw.Config) Builder {
	return func(ds *vec.Dataset, metric vec.Metric, threads int) (Local, error) {
		c := cfg
		if c.M == 0 {
			c = hnsw.DefaultConfig(metric)
		}
		c.Metric = metric
		g, _, err := hnsw.Build(ds, c, threads)
		if err != nil {
			return nil, err
		}
		return &hnswLocal{g: g}, nil
	}
}

func (l *hnswLocal) SearchFiltered(q []float32, k int, keep func(int64) bool, dead vec.DeadBits) ([]topk.Result, Stats, error) {
	rs, st, err := l.g.SearchEfFiltered(q, k, l.g.EfSearch(), keep, dead)
	if err == hnsw.ErrEmpty {
		return nil, Stats{}, nil
	}
	return rs, Stats{DistComps: st.DistComps, Hops: st.Hops}, err
}

func (l *hnswLocal) Rows() *vec.Dataset { return l.g.DataSnapshot() }
func (l *hnswLocal) Dead() *vec.Dead    { return l.g.Dead() }
func (l *hnswLocal) Len() int           { return l.g.Len() }
func (l *hnswLocal) Kind() string       { return "hnsw" }

// Graph exposes the wrapped HNSW graph (for serialization paths that
// remain HNSW-specific).
func (l *hnswLocal) Graph() *hnsw.Graph { return l.g }

// WrapHNSW adapts an existing HNSW graph (e.g. one deserialised from
// disk) into a Local.
func WrapHNSW(g *hnsw.Graph) Local { return &hnswLocal{g: g} }

// HNSWGraph unwraps a Local into its HNSW graph if it is one — either a
// plain HNSW index or a frozen-layout wrapper over one, so the save,
// compaction, and ingestion paths work unchanged on frozen engines.
func HNSWGraph(l Local) (*hnsw.Graph, bool) {
	switch h := l.(type) {
	case *hnswLocal:
		return h.g, true
	case *frozenLocal:
		return h.g, true
	}
	return nil, false
}

// --- exact adapters ---

// exactLocal is every exact local index: the rows it was built over
// and, for vp and kd, a tree that answers a search admitting every row.
// A filtered search, or one with dead rows to skip, scans the admitted
// rows instead — exact at every selectivity, where the tree could only
// truncate an unfiltered top-k. flat has no tree and always scans; the
// engine's test suite uses it as filtered ground truth.
type exactLocal struct {
	kind   string
	ds     *vec.Dataset
	metric vec.Metric
	dead   vec.Dead
	tree   func(q []float32, k int) ([]topk.Result, Stats) // nil: scan
}

func buildVP(ds *vec.Dataset, metric vec.Metric, _ int) (Local, error) {
	l := &exactLocal{kind: "vp", ds: ds, metric: metric}
	if ds.Len() > 0 {
		t := vptree.NewTree(ds, vptree.TreeConfig{Metric: metric})
		l.tree = func(q []float32, k int) ([]topk.Result, Stats) {
			rs, st := t.Search(q, k)
			return rs, Stats{DistComps: st.DistComps, Hops: st.NodesSeen}
		}
	}
	return l, nil
}

func buildKD(ds *vec.Dataset, metric vec.Metric, _ int) (Local, error) {
	if metric != vec.L2 && metric != vec.SquaredL2 {
		return nil, fmt.Errorf("index: kd local index supports L2 only, got %v", metric)
	}
	l := &exactLocal{kind: "kd", ds: ds, metric: metric}
	if ds.Len() > 0 {
		t := kdtree.NewTree(ds, kdtree.TreeConfig{})
		l.tree = func(q []float32, k int) ([]topk.Result, Stats) {
			rs, st := t.Search(q, k)
			return rs, Stats{DistComps: st.DistComps, Hops: st.NodesSeen}
		}
	}
	return l, nil
}

func buildFlat(ds *vec.Dataset, metric vec.Metric, _ int) (Local, error) {
	return &exactLocal{kind: "flat", ds: ds, metric: metric}, nil
}

func (l *exactLocal) SearchFiltered(q []float32, k int, keep func(int64) bool, dead vec.DeadBits) ([]topk.Result, Stats, error) {
	if keep == nil && dead == nil && l.tree != nil {
		rs, st := l.tree(q, k)
		return rs, st, nil
	}
	rs, scored := scanRows(l.ds, 0, q, k, l.metric, dead, keep)
	return rs, Stats{DistComps: int64(scored)}, nil
}

func (l *exactLocal) Rows() *vec.Dataset { return l.ds }
func (l *exactLocal) Dead() *vec.Dead    { return &l.dead }
func (l *exactLocal) Len() int           { return l.ds.Len() }
func (l *exactLocal) Kind() string       { return l.kind }

// Scan scores dataset rows exactly against one query into a k-bounded
// heap. It is the one brute-force loop: the exact locals and the frozen
// tail feed it a row range through scanRows, the engine's filter planner feeds it the rows its
// candidates resolve to, across partitions.
type Scan struct {
	q      []float32
	dist   vec.DistFunc
	sqrtL  bool
	col    *topk.Collector
	scored int
}

// NewScan starts a scan for the k nearest rows to q under metric.
func NewScan(q []float32, k int, metric vec.Metric) *Scan {
	s := &Scan{q: q, dist: metric.Func(), sqrtL: metric == vec.L2, col: topk.New(k)}
	if s.sqrtL {
		s.dist = vec.SquaredL2Distance
	}
	return s
}

// Row scores row i of ds.
func (s *Scan) Row(ds *vec.Dataset, i int) {
	s.col.Push(ds.ID(i), s.dist(s.q, ds.At(i)))
	s.scored++
}

// Results returns the k nearest rows scored so far, nearest first, and
// how many were scored. Distances are in the user metric (true L2, not
// squared) — the units the graph searches report — so merges compare
// like with like.
func (s *Scan) Results() ([]topk.Result, int) {
	rs := s.col.Results()
	if s.sqrtL {
		for i := range rs {
			rs[i].Dist = sqrt32(rs[i].Dist)
		}
	}
	return rs, s.scored
}

// scanRows scans rows [from, ds.Len()) that are not dead and are
// admitted by keep (nil admits every row).
func scanRows(ds *vec.Dataset, from int, q []float32, k int, metric vec.Metric, dead vec.DeadBits, keep func(int64) bool) ([]topk.Result, int) {
	s := NewScan(q, k, metric)
	for i := from; i < ds.Len(); i++ {
		if !dead.Has(i) && (keep == nil || keep(ds.ID(i))) {
			s.Row(ds, i)
		}
	}
	return s.Results()
}

func sqrt32(x float32) float32 {
	if x <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(x)))
}
