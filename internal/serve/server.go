package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/topk"
)

// ServerConfig tunes the HTTP gateway.
type ServerConfig struct {
	// Batcher configures the micro-batcher (see BatcherConfig).
	Batcher BatcherConfig
	// DefaultK is the neighbor count when a request omits k (default 10).
	DefaultK int
	// MaxK caps per-request k (default: the backend's MaxK, else 1000).
	MaxK int
	// CacheSize is the per-collection LRU result-cache capacity in
	// entries; 0 disables result caching (single-flight deduplication
	// stays on regardless), negative uses the default 4096.
	CacheSize int
	// DefaultTimeout bounds requests that do not carry their own
	// timeout_ms; 0 leaves them deadline-free.
	DefaultTimeout time.Duration
	// MaxQueries bounds the queries one POST may carry (default 1024).
	MaxQueries int
	// Threads is the per-batch worker-pool width for collection-backed
	// tenants created at runtime via POST /v1/collections (0 = GOMAXPROCS).
	Threads int
}

func (c *ServerConfig) fill(backend Backend) {
	if c.DefaultK <= 0 {
		c.DefaultK = 10
	}
	if c.MaxK <= 0 {
		c.MaxK = 1000
		if backend != nil {
			if mk := backend.MaxK(); mk > 0 {
				c.MaxK = mk
			}
		}
	}
	if c.DefaultK > c.MaxK {
		c.DefaultK = c.MaxK
	}
	if c.CacheSize < 0 {
		c.CacheSize = 4096
	}
	if c.MaxQueries <= 0 {
		c.MaxQueries = 1024
	}
}

// Server is the gateway: HTTP handlers over per-collection tenants,
// each a micro-batcher + result cache over its backend. A
// single-backend server (NewServer) has exactly one tenant named
// "default", which the legacy un-prefixed routes resolve; a
// registry-backed server (NewCollectionServer) has one tenant per
// collection plus the create/drop admin surface.
type Server struct {
	cfg   ServerConfig
	stats *Stats
	mux   *http.ServeMux
	reg   *collection.Registry // nil in single-backend mode

	mu      sync.RWMutex
	tenants map[string]*tenant

	draining atomic.Bool
}

// NewServer wires a single-backend gateway: one tenant, "default",
// served by both the legacy routes and /v1/collections/default/*.
func NewServer(backend Backend, cfg ServerConfig) *Server {
	cfg.fill(backend)
	s := newServer(cfg, nil)
	s.tenants[DefaultCollection] = s.newTenant(DefaultCollection, backend, nil)
	return s
}

// NewCollectionServer wires a multi-tenant gateway over a collection
// registry: every registered collection becomes a tenant, and the
// /v1/collections admin routes can create and drop them at runtime.
// Legacy routes alias the collection named "default" when one exists.
func NewCollectionServer(reg *collection.Registry, cfg ServerConfig) (*Server, error) {
	cfg.fill(nil)
	s := newServer(cfg, reg)
	for _, name := range reg.Names() {
		col, err := reg.Get(name)
		if err != nil {
			return nil, err
		}
		s.tenants[name] = s.newTenant(name, &CollectionBackend{Col: col, Threads: cfg.Threads}, col)
	}
	return s, nil
}

func newServer(cfg ServerConfig, reg *collection.Registry) *Server {
	s := &Server{
		cfg:     cfg,
		stats:   NewStats(),
		mux:     http.NewServeMux(),
		reg:     reg,
		tenants: make(map[string]*tenant),
	}
	s.routes()
	s.mux.HandleFunc("GET /v1/collections", s.handleColList)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/varz", s.handleVarz)
	return s
}

// Handler returns the gateway's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats exposes the served-traffic counters (tests and embedders).
func (s *Server) Stats() *Stats { return s.stats }

// Drain stops admitting queries, finishes everything queued in every
// tenant, and waits (bounded by ctx). Call it after http.Server.Shutdown
// so in-flight handlers have delivered their submissions. The registry
// itself (stores, WALs) stays open — closing it is its owner's job.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	var first error
	for _, t := range s.snapshot() {
		if err := t.batcher.Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Draining reports whether Drain has begun (healthz turns 503).
func (s *Server) Draining() bool { return s.draining.Load() }

// searchRequest is the search POST body. Exactly one of Query or
// Queries must be set.
type searchRequest struct {
	Query   []float32   `json:"query,omitempty"`
	Queries [][]float32 `json:"queries,omitempty"`
	K       int         `json:"k,omitempty"`
	// Filter is a tag-filter expression (filter.Parse syntax) pushed
	// down into the graph traversal; empty means unfiltered.
	Filter string `json:"filter,omitempty"`
	// TimeoutMS is the per-request deadline; it rides the request context
	// down to the batched search call. 0 uses the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// searchResult is one query's answer.
type searchResult struct {
	IDs    []int64   `json:"ids"`
	Dists  []float32 `json:"dists"`
	Cached bool      `json:"cached,omitempty"`
}

// searchResponse is the 200 body. Degraded marks a partial answer: some
// shards/partitions were unreachable, and FailedPartitions lists them
// (union over every query in the request). Results are still valid but
// may miss neighbors from those partitions.
type searchResponse struct {
	K                int            `json:"k"`
	TookUS           int64          `json:"took_us"`
	Degraded         bool           `json:"degraded,omitempty"`
	FailedPartitions []int          `json:"failed_partitions,omitempty"`
	Results          []searchResult `json:"results"`
}

// search is the search row: each query answered through the tenant's
// cache, single-flight table and micro-batcher.
func (c *call) search(req *searchRequest) (any, error) {
	s, t := c.s, c.t
	queries := req.Queries
	if req.Query != nil {
		if queries != nil {
			return nil, badRequest(codeBadRequest, "set query or queries, not both")
		}
		queries = [][]float32{req.Query}
	}
	if len(queries) == 0 {
		return nil, badRequest(codeBadRequest, "no queries")
	}
	if len(queries) > s.cfg.MaxQueries {
		return nil, badRequest(codeBadRequest,
			fmt.Sprintf("%d queries exceeds the per-request limit %d", len(queries), s.cfg.MaxQueries))
	}
	dim := t.backend.Dim()
	for i, q := range queries {
		if len(q) != dim {
			return nil, badRequest(codeDimMismatch,
				fmt.Sprintf("query %d has dim %d, collection %s has dim %d", i, len(q), t.name, dim))
		}
	}
	f, err := filter.Parse(req.Filter)
	if err != nil {
		return nil, badRequest(codeBadFilter, err.Error())
	}
	k := s.clampK(req.K)
	ctx, cancel := c.withTimeout(req.TimeoutMS)
	defer cancel()

	s.stats.Requests.Add(int64(len(queries)))

	// Each query goes through the cache/single-flight/batcher path on its
	// own, so members of one HTTP batch coalesce and dedup individually
	// alongside every other in-flight request.
	results := make([]searchResult, len(queries))
	metas := make([]BatchMeta, len(queries))
	errs := make([]error, len(queries))
	if len(queries) == 1 {
		results[0], metas[0], errs[0] = s.answerOne(t, ctx, queries[0], k, f)
	} else {
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q []float32) {
				defer wg.Done()
				results[i], metas[i], errs[i] = s.answerOne(t, ctx, q, k, f)
			}(i, q)
		}
		wg.Wait()
	}
	if e := statusOf(errs...); e != nil {
		return nil, e
	}
	// Queries of one HTTP request may land in different backend rounds;
	// the response's degraded view is the union over all of them.
	resp := searchResponse{
		K:       k,
		Results: results,
	}
	for _, m := range metas {
		if m.Degraded {
			resp.Degraded = true
			resp.FailedPartitions = core.UnionPartitions(resp.FailedPartitions, m.FailedPartitions)
		}
	}
	if resp.Degraded {
		s.stats.DegradedResponses.Add(1)
	}
	s.stats.RecordLatency(time.Since(c.t0))
	resp.TookUS = time.Since(c.t0).Microseconds()
	return resp, nil
}

// answerOne resolves a single query within a tenant: cache hit, join an
// identical in-flight search, or lead one through the batcher. Cache
// hits carry a zero BatchMeta by construction — degraded rows are never
// stored.
func (s *Server) answerOne(t *tenant, ctx context.Context, q []float32, k int, f *filter.Expr) (searchResult, BatchMeta, error) {
	key := cacheKey(t.name, f.Canonical(), "", "", [3]float64{}, k, q)
	res, gen, ok := t.cache.get(key)
	if ok {
		s.stats.CacheHits.Add(1)
		return toSearchResult(res, true), BatchMeta{}, nil
	}
	s.stats.CacheMisses.Add(1)
	fl, leader := t.cache.startFlight(key)
	if !leader {
		s.stats.Coalesced.Add(1)
		res, meta, err := fl.wait(ctx)
		if err != nil {
			return searchResult{}, meta, err
		}
		return toSearchResult(res, false), meta, nil
	}
	res, meta, err := t.batcher.DoFiltered(ctx, q, k, f)
	t.cache.finishFlight(key, fl, gen, res, meta, err)
	if err != nil {
		return searchResult{}, meta, err
	}
	return toSearchResult(res, false), meta, nil
}

func toSearchResult(res []topk.Result, cached bool) searchResult {
	sr := searchResult{
		IDs:    make([]int64, len(res)),
		Dists:  make([]float32, len(res)),
		Cached: cached,
	}
	for i, r := range res {
		sr.IDs[i] = r.ID
		sr.Dists[i] = r.Dist
	}
	return sr
}

// writeBroken returns the error that tripped a tenant's write circuit
// breaker, or nil while its backend's write path is healthy.
func writeBroken(t *tenant) error {
	if wh, ok := t.backend.(WriteHealth); ok {
		return wh.WriteFailed()
	}
	return nil
}

// anyWriteBroken scans every tenant's write path for readiness.
func (s *Server) anyWriteBroken() error {
	for _, t := range s.snapshot() {
		if err := writeBroken(t); err != nil {
			return fmt.Errorf("collection %s: %w", t.name, err)
		}
	}
	return nil
}

// handleHealthz is both probes. Liveness (the default) answers whether
// the process should keep running: 200 unless it is draining away.
// Readiness (?ready=1) answers whether it should receive NEW traffic
// and additionally goes not-ready when any tenant's write circuit
// breaker is open — a storage-degraded replica can finish serving reads
// it already has, but a load balancer should prefer healthy replicas
// for fresh connections and an orchestrator should schedule a restart,
// not a kill.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if r.URL.Query().Get("ready") != "" {
		if err := s.anyWriteBroken(); err != nil {
			http.Error(w, "not-ready: write path failed: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ready\n"))
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	// Flatten the traffic snapshot to a map so backend sections can sit
	// alongside it (engine occupancy, WAL/compaction counters).
	doc := map[string]any{}
	if b, err := json.Marshal(s.stats.Snapshot()); err == nil {
		json.Unmarshal(b, &doc)
	}
	// Every tenant gets its own section under "collections"; the default
	// tenant's backend sections are top-level as well (the single-backend
	// layout annserve dashboards scrape).
	cols := map[string]any{}
	var tripped []string
	for _, t := range s.snapshot() {
		sec := map[string]any{}
		if vp, ok := t.backend.(VarzProvider); ok {
			for k, v := range vp.Varz() {
				sec[k] = v
				if t.name == DefaultCollection {
					doc[k] = v
				}
			}
		}
		sec["cache_entries"] = t.cache.Len()
		sec["hybrid_cache_entries"] = t.hybrid.Len()
		sec["queue_draining"] = t.batcher.Draining()
		cols[t.name] = sec
		if err := writeBroken(t); err != nil {
			tripped = append(tripped, fmt.Sprintf("%s: %v", t.name, err))
		}
	}
	doc["collections"] = cols
	breaker := map[string]any{
		"writes_tripped":  len(tripped) > 0,
		"writes_rejected": s.stats.WritesRejected.Load(),
	}
	if len(tripped) > 0 {
		breaker["reason"] = strings.Join(tripped, "; ")
	}
	doc["breaker"] = breaker
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}
