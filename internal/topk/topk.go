// Package topk provides the bounded result collectors and candidate
// queues shared by every search structure in this repository (HNSW, VP
// tree, KD tree, brute force) and by the distributed result merger at the
// master process.
//
// Two heap disciplines appear throughout nearest-neighbor search:
//
//   - a bounded MAX-heap of the best k results found so far, whose root is
//     the current k-th nearest distance (the pruning bound tau);
//   - an unbounded MIN-heap of candidates to expand, ordered by distance.
//
// Both are implemented directly on slices rather than via container/heap
// to keep the hot path free of interface dispatch; these heaps sit inside
// every distance-computation loop.
package topk

import (
	"cmp"
	"slices"
)

// Result is one (id, distance) pair returned by a search.
type Result struct {
	ID   int64
	Dist float32
}

// Collector is a bounded max-heap that retains the K smallest-distance
// results pushed into it. The zero Collector is unusable; call New.
type Collector struct {
	k    int
	heap []Result // max-heap on Dist
}

// New returns a collector that keeps the k nearest results.
func New(k int) *Collector {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Collector{k: k, heap: make([]Result, 0, k)}
}

// K returns the collector's capacity.
func (c *Collector) K() int { return c.k }

// Len returns the number of results currently held.
func (c *Collector) Len() int { return len(c.heap) }

// Full reports whether the collector holds k results.
func (c *Collector) Full() bool { return len(c.heap) == c.k }

// Bound returns the current pruning bound: the largest retained distance
// if the collector is full, else +inf expressed as MaxFloat32-like
// sentinel. Searches compare candidate distances against Bound to prune.
func (c *Collector) Bound() float32 {
	if len(c.heap) < c.k {
		return maxFloat32
	}
	return c.heap[0].Dist
}

const maxFloat32 = 3.40282346638528859811704183484516925440e+38

// Push offers a result. It is kept iff fewer than k results are held or
// its distance beats the current worst. Returns true if kept.
func (c *Collector) Push(id int64, dist float32) bool {
	if len(c.heap) < c.k {
		c.heap = append(c.heap, Result{id, dist})
		c.siftUp(len(c.heap) - 1)
		return true
	}
	if dist >= c.heap[0].Dist {
		return false
	}
	c.heap[0] = Result{id, dist}
	c.siftDown(0)
	return true
}

// PushResult offers an existing Result value.
func (c *Collector) PushResult(r Result) bool { return c.Push(r.ID, r.Dist) }

// Results returns the retained results sorted by ascending distance (ties
// broken by ascending ID for determinism). The collector is unchanged.
func (c *Collector) Results() []Result {
	out := append([]Result(nil), c.heap...)
	SortResults(out)
	return out
}

// Reset empties the collector, retaining capacity.
func (c *Collector) Reset() { c.heap = c.heap[:0] }

func (c *Collector) siftUp(i int) {
	h := c.heap
	for i > 0 {
		p := (i - 1) / 2
		if h[p].Dist >= h[i].Dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (c *Collector) siftDown(i int) {
	h := c.heap
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l].Dist > h[m].Dist {
			m = l
		}
		if r < n && h[r].Dist > h[m].Dist {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// SortResults sorts results by ascending distance, then ascending ID.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// Merge combines any number of sorted-or-unsorted partial result lists
// into the global top-k, deduplicating by ID (keeping the smaller
// distance). This is the master-side reduction in the distributed engine.
func Merge(k int, lists ...[]Result) []Result {
	best := make(map[int64]float32)
	for _, l := range lists {
		for _, r := range l {
			if d, ok := best[r.ID]; !ok || r.Dist < d {
				best[r.ID] = r.Dist
			}
		}
	}
	c := New(k)
	for id, d := range best {
		c.Push(id, d)
	}
	return c.Results()
}

// MinQueue is a min-heap of candidates ordered by ascending distance,
// used as the expansion frontier in HNSW beam search and best-first KD/VP
// traversal.
type MinQueue struct {
	heap []Result
}

// PushMin inserts a candidate.
func (q *MinQueue) PushMin(id int64, dist float32) {
	q.heap = append(q.heap, Result{id, dist})
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].Dist <= h[i].Dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// PopMin removes and returns the nearest candidate. It panics on an empty
// queue; check Len first.
func (q *MinQueue) PopMin() Result {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.heap = h[:n]
	h = q.heap
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l].Dist < h[m].Dist {
			m = l
		}
		if r < n && h[r].Dist < h[m].Dist {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// PeekMin returns the nearest candidate without removing it.
func (q *MinQueue) PeekMin() Result { return q.heap[0] }

// Len returns the number of queued candidates.
func (q *MinQueue) Len() int { return len(q.heap) }

// Reset empties the queue, retaining capacity.
func (q *MinQueue) Reset() { q.heap = q.heap[:0] }
