package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/topk"
	"repro/internal/vec"
)

// The filter planner. A filtered search has two ways to its answer: the
// routed beam with the predicate pushed down, whose work grows as the
// filter gets more selective (it walks past every non-matching node to
// find the matching ones, and looks only where the router sent it), and
// an exact scan of the rows the tag postings name, whose work is the
// number of candidates and whose recall is 1. SearchFilteredStats counts
// the candidates, asks scanBeatsBeam, and runs one of the two.

// planCounters are the planner's per-engine decision counters (/varz).
type planCounters struct {
	scans, beams, candidates atomic.Int64
}

// beamRowsPerEf is the planner's only constant: what the beam spends in
// one partition per unit of beam width when nothing is filtered out,
// counted in the rows an exact scan scores in the same time.
// BenchmarkFilteredLadder's 100% rung measures both sides of it on the
// benchmark corpus (one core): the beam takes 223 µs over 2 partitions
// at ef 64, 1.7 µs per unit, and the scan 0.13 µs per row — 13 on the
// dynamic graph, 10 on the frozen SQ8 layout, 11-14 at nprobe = all.
// The table and the choices it leads to are in DESIGN §10.
const beamRowsPerEf = 12

// scanBeatsBeam is the one scan-versus-beam decision: scan when the
// candidates are no more than the rows the beam's work is worth. The
// estimate uses what the engine can see before it routes. A beam that
// admits one node in 1/s keeps expanding until it holds ef matching
// ones, so a partition costs it beamRowsPerEf·ef divided by the
// candidate fraction s, but no more than the partition's rows, where it
// runs out of graph; exact locals have no beam and cost their rows.
// Top-nprobe routing pays that nprobe times. Adaptive routing widens to
// the ball of the k-th matching distance, which the ladder shows
// reaching nearly every partition under a filter, so it is charged for
// all of them.
func (e *Engine) scanBeatsBeam(candidates int, parts []index.Local, k int) bool {
	if candidates == 0 {
		return true
	}
	rows := 0
	for _, p := range parts {
		rows += p.Len()
	}
	probes := len(parts)
	if e.cfg.Routing != RouteAdaptive && e.cfg.NProbe < probes {
		probes = e.cfg.NProbe
	}
	perPart := float64(rows) / float64(len(parts))
	if g, ok := index.HNSWGraph(parts[0]); ok {
		beam := beamRowsPerEf * float64(max(g.EfSearch(), k)) * float64(rows) / float64(candidates)
		perPart = min(perPart, beam)
	}
	return float64(candidates) <= float64(probes)*perPart
}

// planScratch is the per-query state of a filtered search, pooled so the
// scan path allocates only its result heap and the dataset views.
type planScratch struct {
	tf   tagFilter
	rows []*vec.Dataset // per partition, fetched on first use
}

var planPool = sync.Pool{New: func() any { return new(planScratch) }}

// release returns sc to the pool without the memory it pointed into.
func (sc *planScratch) release() {
	clear(sc.tf.posts)
	clear(sc.rows)
	sc.tf.t = nil
	planPool.Put(sc)
}

// scanCandidates answers a filtered search from the postings: every ID
// on the smallest conjunct's lists that has a live row and still
// satisfies the whole filter is scored exactly at the row the locator
// names, whatever partition holds it. It returns the k nearest and the
// number of rows scored. Rows are resolved against parts, the caller's
// snapshot; a location that does not check out there (the row is past
// the end, or carries another ID) belongs to a partition swapped in or
// out since, and the scan gives up — ok false — so the query runs the
// beam on its snapshot instead.
func (e *Engine) scanCandidates(q []float32, k int, sc *planScratch, parts []index.Local) (rs []topk.Result, scored int64, ok bool) {
	tf := &sc.tf
	sc.rows = append(sc.rows[:0], make([]*vec.Dataset, len(parts))...)
	scan := index.NewScan(q, k, e.cfg.Metric)
	d := &e.dynamic
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, post := range tf.posts {
		for _, id := range post {
			s, live := d.slots[id]
			if !live || !tf.match(id) {
				continue
			}
			p, row := int(s.part), int(s.row)
			if p >= len(parts) {
				return nil, 0, false
			}
			ds := sc.rows[p]
			if ds == nil {
				ds = parts[p].Rows()
				sc.rows[p] = ds
			}
			if row >= ds.Len() || ds.ID(row) != id {
				return nil, 0, false
			}
			scan.Row(ds, row)
		}
	}
	rs, n := scan.Results()
	return rs, int64(n), true
}
