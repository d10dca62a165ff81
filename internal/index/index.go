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
	// Search returns up to k nearest neighbors of q with global IDs.
	Search(q []float32, k int) ([]topk.Result, Stats, error)
	// SearchFiltered returns up to k nearest neighbors whose global ID
	// satisfies keep, evaluating the predicate while it searches, not on
	// a finished top-k. A nil keep is Search. keep must be safe for
	// concurrent use when the index is searched from several goroutines.
	SearchFiltered(q []float32, k int, keep func(int64) bool) ([]topk.Result, Stats, error)
	// Rows returns a point-in-time view of the indexed vectors in row
	// order, safe to read while the index takes inserts. The engine's
	// candidate scan scores rows out of it; callers must not modify it.
	Rows() *vec.Dataset
	// Len returns the number of indexed vectors.
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

func (l *hnswLocal) Search(q []float32, k int) ([]topk.Result, Stats, error) {
	return l.SearchFiltered(q, k, nil)
}

func (l *hnswLocal) SearchFiltered(q []float32, k int, keep func(int64) bool) ([]topk.Result, Stats, error) {
	rs, st, err := l.g.SearchFiltered(q, k, keep)
	if err == hnsw.ErrEmpty {
		return nil, Stats{}, nil
	}
	return rs, Stats{DistComps: st.DistComps, Hops: st.Hops}, err
}

func (l *hnswLocal) Rows() *vec.Dataset { return l.g.DataSnapshot() }
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

// --- exact VP adapter ---

type vpLocal struct {
	t *vptree.Tree
	exactRows
}

func buildVP(ds *vec.Dataset, metric vec.Metric, _ int) (Local, error) {
	l := &vpLocal{exactRows: exactRows{ds, metric}}
	if ds.Len() > 0 {
		l.t = vptree.NewTree(ds, vptree.TreeConfig{Metric: metric})
	}
	return l, nil
}

func (l *vpLocal) Search(q []float32, k int) ([]topk.Result, Stats, error) {
	if l.t == nil {
		return nil, Stats{}, nil
	}
	rs, st := l.t.Search(q, k)
	return rs, Stats{DistComps: st.DistComps, Hops: st.NodesSeen}, nil
}

func (l *vpLocal) SearchFiltered(q []float32, k int, keep func(int64) bool) ([]topk.Result, Stats, error) {
	if keep == nil {
		return l.Search(q, k)
	}
	return l.scan(q, k, keep)
}

func (l *vpLocal) Kind() string { return "vp" }

// --- exact KD adapter ---

type kdLocal struct {
	t *kdtree.Tree
	exactRows
}

func buildKD(ds *vec.Dataset, metric vec.Metric, _ int) (Local, error) {
	if metric != vec.L2 && metric != vec.SquaredL2 {
		return nil, fmt.Errorf("index: kd local index supports L2 only, got %v", metric)
	}
	l := &kdLocal{exactRows: exactRows{ds, metric}}
	if ds.Len() > 0 {
		l.t = kdtree.NewTree(ds, kdtree.TreeConfig{})
	}
	return l, nil
}

func (l *kdLocal) Search(q []float32, k int) ([]topk.Result, Stats, error) {
	if l.t == nil {
		return nil, Stats{}, nil
	}
	rs, st := l.t.Search(q, k)
	return rs, Stats{DistComps: st.DistComps, Hops: st.NodesSeen}, nil
}

func (l *kdLocal) SearchFiltered(q []float32, k int, keep func(int64) bool) ([]topk.Result, Stats, error) {
	if keep == nil {
		return l.Search(q, k)
	}
	return l.scan(q, k, keep)
}

func (l *kdLocal) Kind() string { return "kd" }

// --- flat scan adapter ---

type flatLocal struct{ exactRows }

func buildFlat(ds *vec.Dataset, metric vec.Metric, _ int) (Local, error) {
	return &flatLocal{exactRows{ds, metric}}, nil
}

func (l *flatLocal) Search(q []float32, k int) ([]topk.Result, Stats, error) {
	return l.scan(q, k, nil)
}

// SearchFiltered on the flat local is exact brute force over matching
// rows; the engine's test suite uses it as filtered ground truth.
func (l *flatLocal) SearchFiltered(q []float32, k int, keep func(int64) bool) ([]topk.Result, Stats, error) {
	return l.scan(q, k, keep)
}

func (l *flatLocal) Kind() string { return "flat" }

// exactRows is what the exact locals share: the dataset they were built
// over, kept so a filtered search scans the matching rows (exact at
// every selectivity) where the tree could only truncate an unfiltered
// top-k.
type exactRows struct {
	ds     *vec.Dataset
	metric vec.Metric
}

func (r exactRows) Rows() *vec.Dataset { return r.ds }
func (r exactRows) Len() int           { return r.ds.Len() }

func (r exactRows) scan(q []float32, k int, keep func(int64) bool) ([]topk.Result, Stats, error) {
	rs, scored := scanRows(r.ds, 0, q, k, r.metric, keep)
	return rs, Stats{DistComps: int64(scored)}, nil
}

// Scan scores dataset rows exactly against one query into a k-bounded
// heap. It is the one brute-force loop: the flat local, the frozen tail
// and the exact locals' filtered search feed it a row range through
// scanRows, the engine's filter planner feeds it the rows its
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

// scanRows scans rows [from, ds.Len()) admitted by keep (nil admits
// every row).
func scanRows(ds *vec.Dataset, from int, q []float32, k int, metric vec.Metric, keep func(int64) bool) ([]topk.Result, int) {
	s := NewScan(q, k, metric)
	for i := from; i < ds.Len(); i++ {
		if keep == nil || keep(ds.ID(i)) {
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
