package serve

import (
	"context"
	"net/http"
	"sort"
	"sync/atomic"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/store"
	"repro/internal/vec"
)

// DefaultCollection is the tenant legacy (un-prefixed) routes resolve
// to: /v1/search is an alias for /v1/collections/default/search.
const DefaultCollection = "default"

// tenant is one served collection's vertical slice of the gateway:
// its backend, its micro-batcher (one dispatcher goroutine per tenant,
// so tenants never serialize behind each other), and its result cache.
// Caches being per-tenant makes collection-scoped purge structural: a
// mutation in one collection cannot evict another's entries.
type tenant struct {
	name    string
	backend Backend
	batcher *Batcher
	cache   *resultCache
	// hybrid caches fused hybrid rows; purge empties it with cache.
	hybrid *lru[[]core.HybridResult]
	// col is set for registry-backed tenants; nil for the plain
	// single-backend "default" tenant.
	col *collection.Collection
}

// purge empties both result caches: whatever they hold was computed
// before the mutation or topology change that calls this.
func (t *tenant) purge() {
	t.cache.purge()
	t.hybrid.purge()
}

// applied accounts for the n mutations of a request that landed (all of
// them, or the ones before a mid-batch failure): they count, and they
// make every cached row stale.
func (t *tenant) applied(counter *atomic.Int64, n int) {
	counter.Add(int64(n))
	if n > 0 {
		t.purge()
	}
}

// CollectionBackend adapts one collection.Collection to the gateway
// Backend contract: searches and mutations go through the collection,
// so they hit its admission quota and its WAL.
type CollectionBackend struct {
	Col *collection.Collection
	// Threads is the worker-pool width per batch (0 = GOMAXPROCS).
	Threads int
}

// Dim implements Backend.
func (b *CollectionBackend) Dim() int { return b.Col.Config().Dim }

// MaxK implements Backend; collections serve any k.
func (b *CollectionBackend) MaxK() int { return 0 }

// SearchBatch implements Backend.
func (b *CollectionBackend) SearchBatch(ctx context.Context, queries *vec.Dataset, k int) (BatchOutput, error) {
	return b.SearchBatchFiltered(ctx, queries, k, nil)
}

// SearchBatchFiltered implements FilteredBackend (nil filter for none).
func (b *CollectionBackend) SearchBatchFiltered(ctx context.Context, queries *vec.Dataset, k int, f *filter.Expr) (BatchOutput, error) {
	res, err := b.Col.SearchBatchFiltered(ctx, queries, k, f, b.Threads)
	return BatchOutput{Results: res}, err
}

// Upsert implements Mutator; the collection enforces its lexical gate
// and dim check.
func (b *CollectionBackend) Upsert(v []float32, id int64, a store.Attrs) error {
	return b.Col.Upsert(v, id, a)
}

// SearchHybrid implements HybridBackend.
func (b *CollectionBackend) SearchHybrid(ctx context.Context, q []float32, text string, k int, opts core.HybridOptions) ([]core.HybridResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.Col.SearchHybrid(q, text, k, opts)
}

// Delete implements Mutator.
func (b *CollectionBackend) Delete(id int64) error { return b.Col.Delete(id) }

// WriteFailed implements WriteHealth over the collection's store.
func (b *CollectionBackend) WriteFailed() error { return b.Col.Store().Failed() }

// Varz implements VarzProvider.
func (b *CollectionBackend) Varz() map[string]any { return b.Col.Varz() }

// newTenant wires one tenant's batcher and cache over its backend.
func (s *Server) newTenant(name string, backend Backend, col *collection.Collection) *tenant {
	t := &tenant{
		name:    name,
		backend: backend,
		batcher: NewBatcher(backend, s.cfg.Batcher, s.stats),
		cache:   newResultCache(s.cfg.CacheSize),
		hybrid:  newLRU[[]core.HybridResult](s.cfg.CacheSize),
		col:     col,
	}
	// Routed backends report topology transitions (shard-map swaps,
	// replicas dying or recovering); every one invalidates the result
	// cache, so a cached row can never outlive the topology it was
	// computed against.
	if tn, ok := backend.(TopologyNotifier); ok {
		tn.OnTopologyChange(func() {
			t.purge()
			s.stats.TopologyPurges.Add(1)
		})
	}
	return t
}

// snapshot returns the tenants registered right now, ordered by name.
func (s *Server) snapshot() []*tenant {
	s.mu.RLock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.RUnlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	return ts
}

// info describes the tenant as the collection admin routes report it.
func (t *tenant) info() collectionInfo {
	info := collectionInfo{Name: t.name, Dim: t.backend.Dim()}
	if t.col != nil {
		cfg := t.col.Config()
		info.Metric = cfg.Metric
		info.Frozen = cfg.Frozen
		info.Points = t.col.Engine().Len()
	}
	return info
}

// tenantFor resolves a collection name to its tenant.
func (s *Server) tenantFor(name string) (*tenant, error) {
	s.mu.RLock()
	t, ok := s.tenants[name]
	s.mu.RUnlock()
	if !ok {
		return nil, unknownCollection(name)
	}
	return t, nil
}

func unknownCollection(name string) *apiError {
	return &apiError{http.StatusNotFound, codeUnknownCollection, "unknown collection " + name}
}
