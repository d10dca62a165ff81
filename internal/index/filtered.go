package index

import "repro/internal/topk"

// FilteredSearcher is the optional Local capability for filter
// pushdown: return up to k nearest neighbors whose global ID satisfies
// keep, evaluating the predicate during traversal instead of truncating
// an unfiltered top-k afterwards. keep==nil must behave exactly like
// Search. Implemented by the HNSW-backed locals (dynamic and frozen)
// and by the flat scan (exactly); engines post-filter for locals
// without this capability via SearchFiltered below. Filtered hybrid
// retrieval reuses this path for its vector leg, so the same predicate
// semantics apply to both legs of a fused query.
type FilteredSearcher interface {
	SearchFiltered(q []float32, k int, keep func(int64) bool) ([]topk.Result, Stats, error)
}

// SearchFiltered searches l with the predicate pushed down when the
// local index supports it, falling back to an over-fetching
// search-then-filter pass otherwise. The fallback fetches 4*k (plus
// slack) so moderate selectivities still fill k, but it cannot match
// pushdown at low selectivity — exact tree locals (vp, kd) accept that
// as the cost of staying filter-oblivious.
func SearchFiltered(l Local, q []float32, k int, keep func(int64) bool) ([]topk.Result, Stats, error) {
	if keep == nil {
		return l.Search(q, k)
	}
	if fs, ok := l.(FilteredSearcher); ok {
		return fs.SearchFiltered(q, k, keep)
	}
	fetch := 4*k + 16
	if n := l.Len(); fetch > n {
		fetch = n
	}
	rs, st, err := l.Search(q, fetch)
	if err != nil {
		return nil, st, err
	}
	out := rs[:0]
	for _, r := range rs {
		if keep(r.ID) {
			out = append(out, r)
		}
	}
	if len(out) > k {
		out = out[:k]
	}
	return out, st, nil
}
