package index

import (
	"fmt"
	"sync/atomic"

	"repro/internal/hnsw"
	"repro/internal/topk"
	"repro/internal/vec"
)

// frozenLocal serves a partition from a flat frozen layout (the graph's
// rows read in place + CSR adjacency + optional SQ8 codes) while the
// dynamic HNSW graph underneath keeps accepting WAL-replayed inserts.
// Searches hit the frozen view lock-free; rows appended after the freeze
// (the "tail") are merged in by an exact linear scan, and when the tail
// outgrows refreezeThreshold a background re-freeze folds it into a new
// frozen view, installed with one atomic pointer swap — concurrent
// searches see either the old or the new view, never a torn one.
type frozenLocal struct {
	g    *hnsw.Graph
	opts hnsw.FreezeOptions

	frozen     atomic.Pointer[hnsw.Frozen]
	rerankK    atomic.Int64
	refreezing atomic.Bool

	searches    atomic.Int64
	quantComps  atomic.Int64
	reranked    atomic.Int64
	tailScanned atomic.Int64
	refreezes   atomic.Int64
}

// refreezeThreshold is the tail size beyond which a search triggers a
// background re-freeze: an eighth of the frozen base, floored so small
// bursts of inserts do not thrash O(n) freezes. It also bounds how long
// the frozen view pins the graph's old row array after an insert has
// regrown it: until the re-freeze, memory holds old + new arrays.
func refreezeThreshold(frozenLen int) int {
	t := frozenLen / 8
	if t < 256 {
		t = 256
	}
	return t
}

// Freeze wraps an HNSW-backed Local in the frozen serving layout.
// Freezing an already-frozen index re-freezes it with the new options
// (counters reset). Exact local indexes cannot be frozen.
func Freeze(l Local, opts hnsw.FreezeOptions) (Local, error) {
	g, ok := HNSWGraph(l)
	if !ok {
		return nil, fmt.Errorf("index: local index %q cannot be frozen (HNSW only)", l.Kind())
	}
	f, err := g.Freeze(opts)
	if err != nil {
		return nil, err
	}
	fl := &frozenLocal{g: g, opts: opts}
	fl.frozen.Store(f)
	fl.rerankK.Store(int64(opts.RerankK))
	return fl, nil
}

// Frozen reports whether l serves from a frozen layout.
func Frozen(l Local) bool {
	_, ok := l.(*frozenLocal)
	return ok
}

// FrozenView exposes the current frozen snapshot of a frozen Local.
func FrozenView(l Local) (*hnsw.Frozen, bool) {
	fl, ok := l.(*frozenLocal)
	if !ok {
		return nil, false
	}
	return fl.frozen.Load(), true
}

// SetRerankK adjusts the re-rank budget of a frozen Local at runtime
// (no-op otherwise). See hnsw.FreezeOptions.RerankK for the 0/negative
// conventions.
func SetRerankK(l Local, rr int) {
	if fl, ok := l.(*frozenLocal); ok {
		fl.rerankK.Store(int64(rr))
	}
}

// FrozenStats is a point-in-time counter snapshot of one frozen Local.
type FrozenStats struct {
	FrozenLen   int   // rows in the frozen view
	TailLen     int   // rows appended since the freeze
	ArenaBytes  int64 // bytes the frozen layout owns (adjacency + codes + codec), not the rows it shares with the graph
	Quantized   bool  // SQ8 first pass active
	Searches    int64 // searches served from the frozen path
	QuantComps  int64 // quantized distance evaluations
	Reranked    int64 // candidates re-ranked at full precision
	TailScanned int64 // tail rows scanned exactly
	Refreezes   int64 // background re-freezes folded in
}

// FrozenLocalStats snapshots a frozen Local's counters.
func FrozenLocalStats(l Local) (FrozenStats, bool) {
	fl, ok := l.(*frozenLocal)
	if !ok {
		return FrozenStats{}, false
	}
	f := fl.frozen.Load()
	tail := fl.g.Len() - f.Len()
	if tail < 0 {
		tail = 0
	}
	return FrozenStats{
		FrozenLen:   f.Len(),
		TailLen:     tail,
		ArenaBytes:  f.ArenaBytes(),
		Quantized:   f.Quantized(),
		Searches:    fl.searches.Load(),
		QuantComps:  fl.quantComps.Load(),
		Reranked:    fl.reranked.Load(),
		TailScanned: fl.tailScanned.Load(),
		Refreezes:   fl.refreezes.Load(),
	}, true
}

// Refreeze synchronously rebuilds the frozen view from the graph's
// current contents.
func (l *frozenLocal) Refreeze() error {
	f, err := l.g.Freeze(l.opts)
	if err != nil {
		return err
	}
	l.frozen.Store(f)
	l.refreezes.Add(1)
	return nil
}

func (l *frozenLocal) maybeRefreeze(tail, frozenLen int) {
	if tail <= refreezeThreshold(frozenLen) {
		return
	}
	if !l.refreezing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer l.refreezing.Store(false)
		// Best-effort: a failed freeze (e.g. NaN snuck into the tail
		// with SQ8 on) keeps serving the old view plus tail scans.
		_ = l.Refreeze()
	}()
}

func (l *frozenLocal) SearchFiltered(q []float32, k int, keep func(int64) bool, dead vec.DeadBits) ([]topk.Result, Stats, error) {
	f := l.frozen.Load()
	l.searches.Add(1)

	var (
		rs  []topk.Result
		hst hnsw.Stats
		err error
	)
	if f.Len() > 0 {
		rs, hst, err = f.SearchEfFiltered(q, k, l.g.EfSearch(), int(l.rerankK.Load()), keep, dead)
		if err != nil {
			return nil, Stats{}, err
		}
	}
	st := Stats{
		DistComps:  hst.DistComps,
		Hops:       hst.Hops,
		QuantComps: hst.QuantComps,
		Reranked:   hst.Reranked,
	}
	l.quantComps.Add(hst.QuantComps)
	l.reranked.Add(hst.Reranked)

	// Rows appended after the freeze: exact scan, merged by distance.
	ds := l.g.DataSnapshot()
	if tailLen := ds.Len() - f.Len(); tailLen > 0 {
		tail, scored := scanRows(ds, f.Len(), q, k, l.g.Config().Metric, dead, keep)
		st.DistComps += int64(scored)
		l.tailScanned.Add(int64(tailLen))
		rs = topk.Merge(k, rs, tail)
		l.maybeRefreeze(tailLen, f.Len())
	}
	return rs, st, nil
}

func (l *frozenLocal) Rows() *vec.Dataset { return l.g.DataSnapshot() }
func (l *frozenLocal) Dead() *vec.Dead    { return l.g.Dead() }
func (l *frozenLocal) Len() int           { return l.g.Len() }
func (l *frozenLocal) Kind() string       { return "hnsw-frozen" }

// Graph exposes the dynamic graph under the frozen view (save,
// compaction, and ingestion paths).
func (l *frozenLocal) Graph() *hnsw.Graph { return l.g }
