package serve

import (
	"container/list"
	"context"
	"math"
	"sync"

	"repro/internal/topk"
)

// cacheKey fingerprints a request within a tenant's caches: the
// collection, the filter's canonical form, the query text, the fusion
// mode and its three weights (rrf_k, vec_weight, lex_weight), k and the
// query vector — two requests differing in any of them are different
// result sets. A search passes the hybrid-only fields as zero values. The
// collection name and the filter are part of the key even though caches
// are per-tenant, so the same query under a different filter (or in a
// different collection) never collides. FNV-1a over the raw bits:
// exact-match caching only, which is what repeated traffic (hot
// queries, retries, loadgen loops) produces. Strings and the vector are
// length-prefixed so adjacent fields cannot alias: ("ab","c") and
// ("a","bc") differ.
func cacheKey(tenant, canon, text, fusion string, weights [3]float64, k int, q []float32) uint64 {
	h := fnvOffset.str(tenant).str(canon).str(text).str(fusion)
	for _, w := range weights {
		h = h.u64(math.Float64bits(w))
	}
	h = h.u32(uint32(k)).u32(uint32(len(q)))
	for _, x := range q {
		h = h.u32(math.Float32bits(x))
	}
	return uint64(h)
}

// fnv64 is an FNV-1a state; each method hashes its argument's bytes,
// little-endian for integers.
type fnv64 uint64

const (
	fnvOffset fnv64 = 14695981039346656037
	fnvPrime  fnv64 = 1099511628211
)

func (h fnv64) u32(x uint32) fnv64 {
	for i := 0; i < 4; i++ {
		h = (h ^ fnv64(byte(x>>(8*i)))) * fnvPrime
	}
	return h
}

func (h fnv64) u64(x uint64) fnv64 { return h.u32(uint32(x)).u32(uint32(x >> 32)) }

func (h fnv64) str(s string) fnv64 {
	h = h.u32(uint32(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ fnv64(s[i])) * fnvPrime
	}
	return h
}

// flight is one in-progress search that duplicate concurrent queries
// wait on instead of searching again. The flights one request leads share
// one done channel, closed once its round has answered them all.
type flight struct {
	done chan struct{} // closed when res/meta/err are set
	res  []topk.Result
	meta BatchMeta
	err  error
}

// lru is a bounded least-recently-used map from request fingerprint to
// result row. Rows stored here are treated as immutable by every
// reader. Each tenant holds two: search rows (inside resultCache) and
// fused hybrid rows.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[uint64]*list.Element
	// gen counts purges. A row computed from a search that began under an
	// older generation may predate the write that purged, so put drops it.
	gen uint64
}

type lruEntry[V any] struct {
	key uint64
	val V
}

// newLRU returns an LRU retaining up to capacity entries; capacity <= 0
// disables storage.
func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, ll: list.New(), items: make(map[uint64]*list.Element)}
}

// get returns a cached row and refreshes its recency. On a miss the
// caller searches and hands the generation it got here back to put.
func (c *lru[V]) get(key uint64) (val V, gen uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return val, c.gen, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, c.gen, true
}

// put stores a row looked up (and missed) under generation gen, evicting
// the least recently used entry past capacity. A purge since then drops
// the row instead: the write it stands for may be newer than the search.
func (c *lru[V]) put(key uint64, val V, gen uint64) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruEntry[V]).key)
	}
}

// purge drops every cached entry and starts a new generation. Mutations
// call it: any cached row may now contain a deleted ID or miss a fresh
// insert, and so may any row still being computed.
func (c *lru[V]) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.purgeLocked()
}

func (c *lru[V]) purgeLocked() {
	c.ll.Init()
	clear(c.items)
	c.gen++
}

// Len reports the number of cached entries.
func (c *lru[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// resultCache is the search LRU plus a single-flight table of
// in-progress searches (capacity <= 0 still dedups).
type resultCache struct {
	*lru[[]topk.Result]
	flights map[uint64]*flight
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{lru: newLRU[[]topk.Result](capacity), flights: make(map[uint64]*flight)}
}

// probe is one query's passage through a tenant's result cache: its
// key, the generation its lookup missed in, and the flight it leads or
// joined (nil on a hit). own is the flight it leads, if it does: then fl
// is &own.
type probe struct {
	key uint64
	gen uint64
	fl  *flight
	own flight
}

// lookup resolves p.key: a cached row (ok), else the flight already
// searching it, which p joins, else p's own flight, signalled on done,
// which p now leads and must settle.
func (c *resultCache) lookup(p *probe, done chan struct{}) (res []topk.Result, ok bool) {
	if res, p.gen, ok = c.get(p.key); ok {
		return res, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.fl = c.flights[p.key]; p.fl == nil {
		p.own.done = done
		p.fl = &p.own
		c.flights[p.key] = p.fl
	}
	return nil, false
}

// purge also unhooks the searches in flight: they may have read the
// engine before the write, so a query arriving from now on leads a fresh
// search instead of joining one. Those already waiting keep their
// flight — they arrived before the write was acknowledged, and its
// answer is a valid snapshot for them.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.purgeLocked()
	clear(c.flights)
}

// settle takes the outcome a lead probe's flight now holds out of the
// flight table and, on success, stores the row in the LRU under the
// generation the probe's lookup missed in. Degraded rows are never
// stored: they are missing neighbors from failed partitions, and serving
// them after the cluster recovers would silently pin the outage's
// results. The flight's waiters see the outcome once its done channel is
// closed, which the leader does after settling every flight sharing it.
func (c *resultCache) settle(p *probe) {
	c.mu.Lock()
	if c.flights[p.key] == &p.own { // a purge may have unhooked it, and a newer one taken the key
		delete(c.flights, p.key)
	}
	c.mu.Unlock()
	if p.own.err == nil && !p.own.meta.Degraded {
		c.put(p.key, p.own.res, p.gen)
	}
}

// wait blocks until the flight resolves or ctx expires.
func (f *flight) wait(ctx context.Context) ([]topk.Result, BatchMeta, error) {
	select {
	case <-f.done:
		return f.res, f.meta, f.err
	case <-ctx.Done():
		return nil, BatchMeta{}, ctx.Err()
	}
}
