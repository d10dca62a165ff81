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

// searchReply is the 200 body: one result per query, encoded by
// appendSearchResponse straight from the rows as
// {"ids":[...],"dists":[...]} plus "cached":true on a row served from
// the cache. Degraded marks a partial answer: some shards/partitions were
// unreachable, and FailedPartitions lists them (union over every query in
// the request). Results are still valid but may miss neighbors from those
// partitions.
type searchReply struct {
	K                int
	TookUS           int64
	Degraded         bool
	FailedPartitions []int
	Rows             [][]topk.Result
	Cached           []bool
}

// search is the search row. One pass over the queries keys each one and
// serves it from the tenant's cache, or has it lead or join a search in
// flight; a query repeated in the request joins its first copy's. The
// queries it leads go to the batcher as one request, and it settles
// their flights before it waits on the ones it joined: a request never
// waits while holding a flight another request may wait on, so two
// requests that each joined what the other leads cannot deadlock.
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

	n := len(queries)
	s.stats.Requests.Add(int64(n))
	resp := &searchReply{K: k, Rows: make([][]topk.Result, n), Cached: make([]bool, n)}
	// Every flight the request leads closes on done. led is filtered in
	// place: each query is read before led can overwrite it.
	probes, done, led := make([]probe, n), make(chan struct{}), queries[:0]
	for i, q := range queries {
		p := &probes[i]
		p.key = cacheKey(t.name, f.Canonical(), "", "", [3]float64{}, k, q)
		if res, ok := t.cache.lookup(p, done); ok {
			s.stats.CacheHits.Add(1)
			resp.Rows[i], resp.Cached[i] = res, true
			continue
		}
		s.stats.CacheMisses.Add(1)
		if p.fl == &p.own {
			led = append(led, q)
		} else {
			s.stats.Coalesced.Add(1)
		}
	}

	if len(led) > 0 {
		rows, meta, err := t.batcher.Do(ctx, led, k, f)
		for i := range probes {
			if p := &probes[i]; p.fl == &p.own {
				if err == nil {
					p.own.res, rows = rows[0], rows[1:]
				}
				p.own.meta, p.own.err = meta, err
				t.cache.settle(p)
			}
		}
		close(done)
	}
	var errs []error
	for i := range probes {
		p := &probes[i]
		if p.fl == nil {
			continue // a cache hit, never degraded
		}
		res, meta, err := p.own.res, p.own.meta, p.own.err
		if p.fl != &p.own {
			res, meta, err = p.fl.wait(ctx)
		}
		if err != nil {
			errs = append(errs, err)
		}
		resp.Rows[i] = res
		// Queries of one request may be answered by different rounds; the
		// reply's degraded view is the union over all of them.
		if meta.Degraded {
			resp.Degraded = true
			resp.FailedPartitions = core.UnionPartitions(resp.FailedPartitions, meta.FailedPartitions)
		}
	}
	if e := statusOf(errs...); e != nil {
		return nil, e
	}
	if resp.Degraded {
		s.stats.DegradedResponses.Add(1)
	}
	s.stats.RecordLatency(time.Since(c.t0))
	resp.TookUS = time.Since(c.t0).Microseconds()
	return resp, nil
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
