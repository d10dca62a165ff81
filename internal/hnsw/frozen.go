package hnsw

import (
	"fmt"

	"repro/internal/topk"
	"repro/internal/vec"
)

// Frozen is the flat, read-only serving layout of a Graph: per-layer
// adjacency in CSR form (an offsets slab plus one neighbor slab — no
// per-node allocations, no pointers, no locks on the hot path), and
// optionally an SQ8 code slab used for quantized candidate generation
// with exact float32 re-ranking. Its full-precision rows and IDs are
// not a copy: they are capacity-capped views of the graph's own
// contiguous rows, which Add only ever appends to.
//
// A Frozen is an immutable snapshot: it is built once by Graph.Freeze
// and never mutated, so any number of goroutines may search it
// concurrently without synchronisation. Writes keep going to the
// dynamic Graph; the serving layer re-freezes when the delta grows or a
// partition is swapped (see internal/index.Freeze). When a later Add
// outgrows the graph's capacity, the old backing array stays alive
// only as long as this Frozen does.
type Frozen struct {
	dim      int
	metric   vec.Metric
	dist     vec.DistFunc
	sqrtL    bool
	efSearch int
	rerankK  int

	ids   []int64   // n global IDs, the graph's own (shared)
	arena []float32 // n*dim full-precision rows, the graph's own (shared)
	codes []uint8   // n*dim SQ8 codes, or nil when quantization is off
	codec *vec.SQ8

	// layers[l] is the adjacency of layer l in CSR form: the neighbors
	// of node u are nbr[off[u]:off[u+1]]. Nodes absent from a layer have
	// an empty range, so off has n+1 entries on every layer.
	layers   []csrLayer
	entry    uint32
	maxLevel int

	dead *vec.Dead // the graph's own: rows share its numbering
}

type csrLayer struct {
	off []uint32
	nbr []uint32
}

// FreezeOptions tunes the frozen layout.
type FreezeOptions struct {
	// SQ8 enables scalar-quantized candidate generation. Requires an
	// L2-family metric (byte-domain distances rank other metrics
	// incorrectly); Freeze errors otherwise.
	SQ8 bool
	// RerankK is the default number of top quantized candidates
	// re-ranked at full precision per search: >0 uses that many, 0
	// picks 4*k at search time, and <0 means unbounded — every
	// candidate is scored at full precision, which disables quantized
	// scoring entirely and makes results bit-identical to the exact
	// float32 path.
	RerankK int
}

// Freeze lays the graph out flat for serving. The graph may keep
// receiving Add calls concurrently; the frozen view captures the rows
// committed at the time of the call and filters links that point past
// the snapshot. The rows and IDs are read in place, not copied: snap
// guarantees that rows below len(nodes) never change.
func (g *Graph) Freeze(opts FreezeOptions) (*Frozen, error) {
	g.epMu.RLock()
	s := g.snapshotLocked()
	empty := g.empty
	g.epMu.RUnlock()

	n := len(s.nodes)
	f := &Frozen{
		dim:      s.dim,
		metric:   g.cfg.Metric,
		dist:     g.dist,
		sqrtL:    g.sqrtL,
		efSearch: g.cfg.EfSearch,
		rerankK:  opts.RerankK,
		entry:    s.entry,
		maxLevel: s.maxL,
		dead:     &g.dead,
	}
	if empty {
		n = 0
		f.maxLevel = 0
		f.entry = 0
	}
	f.ids = s.ids[:n:n]
	f.arena = s.data[: n*s.dim : n*s.dim]

	// Adjacency: two passes per layer (count, then fill) so each layer
	// is exactly two allocations.
	f.layers = make([]csrLayer, f.maxLevel+1)
	links := make([][][]uint32, n) // per node: snapshot of its links
	for u := 0; u < n; u++ {
		nd := s.nodes[u]
		nd.mu.Lock()
		ls := make([][]uint32, len(nd.links))
		for l, lk := range nd.links {
			row := make([]uint32, 0, len(lk))
			for _, x := range lk {
				if int(x) < n {
					row = append(row, x)
				}
			}
			ls[l] = row
		}
		nd.mu.Unlock()
		links[u] = ls
	}
	for l := range f.layers {
		off := make([]uint32, n+1)
		total := uint32(0)
		for u := 0; u < n; u++ {
			off[u] = total
			if l < len(links[u]) {
				total += uint32(len(links[u][l]))
			}
		}
		off[n] = total
		nbr := make([]uint32, 0, total)
		for u := 0; u < n; u++ {
			if l < len(links[u]) {
				nbr = append(nbr, links[u][l]...)
			}
		}
		f.layers[l] = csrLayer{off: off, nbr: nbr}
	}

	if opts.SQ8 && n > 0 {
		if !g.cfg.Metric.Monotone() {
			return nil, fmt.Errorf("hnsw: SQ8 quantized scoring requires an L2-family metric, have %v", g.cfg.Metric)
		}
		ds := &vec.Dataset{Dim: f.dim, Data: f.arena, IDs: f.ids}
		codec, err := vec.TrainSQ8(ds)
		if err != nil {
			return nil, fmt.Errorf("hnsw: freeze: %w", err)
		}
		codes, err := codec.EncodeAll(ds)
		if err != nil {
			return nil, fmt.Errorf("hnsw: freeze: %w", err)
		}
		f.codec, f.codes = codec, codes
	}
	return f, nil
}

// Len returns the number of frozen vectors.
func (f *Frozen) Len() int { return len(f.ids) }

// Dim returns the vector dimension.
func (f *Frozen) Dim() int { return f.dim }

// MaxLevel returns the frozen hierarchy's top layer.
func (f *Frozen) MaxLevel() int { return f.maxLevel }

// Quantized reports whether the SQ8 first pass is available.
func (f *Frozen) Quantized() bool { return f.codec != nil }

// ID returns the global ID of row i.
func (f *Frozen) ID(i int) int64 { return f.ids[i] }

// ArenaBytes returns the memory the frozen layout owns: adjacency
// slabs, SQ8 codes and codec. The full-precision rows and IDs it shares
// with the graph are not counted.
func (f *Frozen) ArenaBytes() int64 {
	b := int64(len(f.codes))
	for _, l := range f.layers {
		b += int64(len(l.off))*4 + int64(len(l.nbr))*4
	}
	if f.codec != nil {
		b += f.codec.Bytes()
	}
	return b
}

func (f *Frozen) vec(i uint32) []float32 {
	lo, hi := int(i)*f.dim, (int(i)+1)*f.dim
	return f.arena[lo:hi:hi]
}

// Search returns the approximate k nearest neighbors using the beam
// width and re-rank budget fixed at freeze time.
func (f *Frozen) Search(q []float32, k int) ([]topk.Result, Stats, error) {
	return f.SearchEfFiltered(q, k, f.efSearch, f.rerankK, nil, f.dead.Bits())
}

// SearchEf searches with an explicit beam width ef (clamped to >= k)
// and re-rank budget rerankK (see FreezeOptions.RerankK for the 0 and
// negative conventions). Results carry global IDs and exact
// full-precision distances in the configured metric.
func (f *Frozen) SearchEf(q []float32, k, ef, rerankK int) ([]topk.Result, Stats, error) {
	return f.SearchEfFiltered(q, k, ef, rerankK, nil, f.dead.Bits())
}

// SearchFiltered returns the approximate k nearest matching neighbors
// using the beam width and re-rank budget fixed at freeze time.
func (f *Frozen) SearchFiltered(q []float32, k int, keep func(int64) bool) ([]topk.Result, Stats, error) {
	return f.SearchEfFiltered(q, k, f.efSearch, f.rerankK, keep, f.dead.Bits())
}

// SearchEfFiltered is SearchEf with filter pushdown, running the same
// walk as Graph.SearchEfFiltered over the flat layout; keep==nil is the
// unfiltered search and dead a view of the graph's dead rows. Without a code slab, or with rerankK < 0, scoring
// is float32 end to end and results and work stats are bit-identical to
// the dynamic graph over the same snapshot (same traversal order, same
// tie-breaking). Otherwise the walk scores SQ8 codes with the integer
// kernel — 1/4 the memory traffic per candidate — and the top re-rank
// budget of its admitted candidates is re-scored at full precision
// against the graph's rows; non-matching rows never occupy re-rank slots.
func (f *Frozen) SearchEfFiltered(q []float32, k, ef, rerankK int, keep func(int64) bool, dead vec.DeadBits) ([]topk.Result, Stats, error) {
	if err := checkQuery(len(f.ids), f.dim, q, k); err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	w := walk{
		neighbors: func(u uint32, l int) []uint32 {
			lay := &f.layers[l]
			return lay.nbr[lay.off[u]:lay.off[u+1]]
		},
		score: func(u uint32) float32 {
			st.DistComps++
			return f.dist(q, f.vec(u))
		},
		keep: keep,
		dead: dead,
		ids:  f.ids,
		st:   &st,
	}
	quant := f.codec != nil && rerankK >= 0
	if quant {
		qc := make([]uint8, f.dim)
		if err := f.codec.Encode(q, qc); err != nil {
			return nil, st, err
		}
		w.score = func(u uint32) float32 {
			st.QuantComps++
			return float32(vec.SquaredL2Bytes(qc, f.codes[int(u)*f.dim:(int(u)+1)*f.dim]))
		}
	}
	cands := w.beam(w.descend(f.entry, f.maxLevel, 0), max(ef, k), 0)
	if quant {
		rr := rerankK
		if rr == 0 {
			rr = 4 * k
		}
		if rr = max(rr, k); len(cands) > rr {
			cands = cands[:rr]
		}
		col := topk.New(k)
		for _, c := range cands {
			col.Push(int64(c.id), f.dist(q, f.vec(c.id)))
		}
		st.DistComps += int64(len(cands))
		st.Reranked += int64(len(cands))
		cands = cands[:0]
		for _, r := range col.Results() {
			cands = append(cands, cand{uint32(r.ID), r.Dist})
		}
	}
	return report(cands, k, f.ids, f.sqrtL), st, nil
}
