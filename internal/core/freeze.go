package core

import (
	"fmt"

	"repro/internal/hnsw"
	"repro/internal/index"
)

// Frozen serving path. Engine.Freeze lays every partition's HNSW graph
// out flat — the graph's own rows read in place, CSR adjacency slabs, and
// (optionally) an SQ8 code slab scanned during candidate generation
// with exact float32 re-ranking (DESIGN.md §9). The dynamic paths keep
// working on top: WAL-replayed inserts land in the underlying graphs
// and are served by an exact tail merge until a background re-freeze
// folds them in, and compaction's SwapPartition re-freezes the
// replacement partition before installing it.

// freezeState is the engine's frozen-mode configuration, guarded by
// swapMu alongside the partition set it applies to.
type freezeState struct {
	on   bool
	opts hnsw.FreezeOptions
}

// Freeze switches the engine to the frozen serving path: every
// partition is laid out flat with the given options, and partitions
// installed later by SwapPartition are frozen the same way. It can be
// called again to re-freeze with different options. Searches may run
// concurrently; each partition flips atomically from dynamic to frozen.
func (e *Engine) Freeze(opts hnsw.FreezeOptions) error {
	_, parts := e.view()
	frozen := make([]index.Local, len(parts))
	for i, p := range parts {
		f, err := index.Freeze(p, opts)
		if err != nil {
			return fmt.Errorf("core: freezing partition %d: %w", i, err)
		}
		frozen[i] = f
	}
	e.swapMu.Lock()
	// Install against the current partition set: any partition swapped
	// while we were freezing wins (it was frozen by SwapPartition).
	parts2 := append([]index.Local(nil), e.parts...)
	for i := range parts2 {
		if i < len(frozen) && parts2[i] == parts[i] {
			parts2[i] = frozen[i]
		}
	}
	e.parts = parts2
	e.freeze = freezeState{on: true, opts: opts}
	e.cfg.Frozen, e.cfg.SQ8, e.cfg.RerankK = true, opts.SQ8, opts.RerankK
	e.swapMu.Unlock()
	return nil
}

// Unfreeze returns the engine to the dynamic serving path (the
// underlying graphs were receiving writes all along).
func (e *Engine) Unfreeze() {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	parts := append([]index.Local(nil), e.parts...)
	for i, p := range parts {
		if g, ok := index.HNSWGraph(p); ok && index.Frozen(p) {
			parts[i] = index.WrapHNSW(g)
		}
	}
	e.parts = parts
	e.freeze = freezeState{}
	e.cfg.Frozen, e.cfg.SQ8 = false, false
}

// FrozenMode reports whether the engine serves from frozen layouts and
// with which options.
func (e *Engine) FrozenMode() (hnsw.FreezeOptions, bool) {
	e.swapMu.RLock()
	defer e.swapMu.RUnlock()
	return e.freeze.opts, e.freeze.on
}

// SetRerankK adjusts the quantized path's re-rank budget on every
// frozen partition (>0 candidates; 0 = 4*k per query; <0 = exact
// scoring). No-op for dynamic partitions.
func (e *Engine) SetRerankK(rr int) {
	e.swapMu.Lock()
	e.freeze.opts.RerankK = rr
	e.cfg.RerankK = rr
	parts := e.parts
	e.swapMu.Unlock()
	for _, p := range parts {
		index.SetRerankK(p, rr)
	}
}

// FrozenInfo aggregates the frozen path's footprint and work counters
// across partitions — the numbers /varz exports.
type FrozenInfo struct {
	Partitions  int   `json:"partitions"`   // frozen partitions
	FrozenLen   int   `json:"points"`       // rows served from frozen layouts
	TailLen     int   `json:"tail_points"`  // rows pending the next re-freeze
	ArenaBytes  int64 `json:"arena_bytes"`  // bytes owned by frozen layouts (adjacency + SQ8 codes), not the graph rows they read
	Quantized   bool  `json:"sq8"`          // SQ8 first pass active anywhere
	Searches    int64 `json:"searches"`     // frozen-path searches served
	QuantComps  int64 `json:"quant_scans"`  // quantized distance evaluations
	Reranked    int64 `json:"reranked"`     // candidates re-ranked exactly
	TailScanned int64 `json:"tail_scanned"` // tail rows scanned exactly
	Refreezes   int64 `json:"refreezes"`    // background re-freezes
}

// RerankRatio returns reranked / quantized-scans — how much of the
// first-pass work survives to full-precision scoring.
func (fi FrozenInfo) RerankRatio() float64 {
	if fi.QuantComps == 0 {
		return 0
	}
	return float64(fi.Reranked) / float64(fi.QuantComps)
}

// FrozenInfo sums frozen counters over all partitions; ok is false when
// no partition is frozen.
func (e *Engine) FrozenInfo() (FrozenInfo, bool) {
	_, parts := e.view()
	var fi FrozenInfo
	for _, p := range parts {
		st, ok := index.FrozenLocalStats(p)
		if !ok {
			continue
		}
		fi.Partitions++
		fi.FrozenLen += st.FrozenLen
		fi.TailLen += st.TailLen
		fi.ArenaBytes += st.ArenaBytes
		fi.Quantized = fi.Quantized || st.Quantized
		fi.Searches += st.Searches
		fi.QuantComps += st.QuantComps
		fi.Reranked += st.Reranked
		fi.TailScanned += st.TailScanned
		fi.Refreezes += st.Refreezes
	}
	return fi, fi.Partitions > 0
}
