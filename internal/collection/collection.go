// Package collection manages named, isolated vector collections inside
// one server process — the multi-tenant layer over the single-engine
// core. Each collection owns a full vertical slice: a core.Engine with
// its own dimensionality, metric, and serving mode (scalar or frozen /
// SQ8), a write-ahead log + snapshot store for durability, a tag store
// for filtered search, and an admission quota bounding its in-flight
// requests so one tenant cannot starve the rest. A Registry maps names
// to collections and owns the create / open / drop lifecycle under a
// single root directory:
//
//	<root>/<name>/collection.json   — the collection's Config
//	<root>/<name>/data/             — its durable store (WAL, snapshots)
//
// Engines never share state across collections: vectors, tags, caches
// and stores are per-collection by construction, so cross-tenant
// leakage is structurally impossible rather than filtered after the
// fact.
package collection

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/lexical"
	"repro/internal/store"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Typed lifecycle and admission errors; the gateway maps each to its
// own HTTP status (404 / 409 / 429 / 503 / 400).
var (
	// ErrUnknown reports a name the registry does not hold.
	ErrUnknown = errors.New("collection: unknown collection")
	// ErrExists reports a Create of a name already in use.
	ErrExists = errors.New("collection: collection already exists")
	// ErrBadName reports an invalid collection name.
	ErrBadName = errors.New("collection: invalid name")
	// ErrQuota reports an admission rejection: the collection is at its
	// MaxInflight concurrent requests.
	ErrQuota = errors.New("collection: per-collection quota exceeded")
	// ErrDraining reports a request against a collection being dropped
	// or a registry being closed.
	ErrDraining = errors.New("collection: draining")
	// ErrLexicalDisabled reports a text upsert or hybrid search against a
	// collection created without "lexical": true. The gate is at create
	// time because BM25 parameters and stopwords are part of the
	// collection's durable contract — they shape tokenization, which
	// shapes what the WAL's text records replay into.
	ErrLexicalDisabled = errors.New("collection: lexical indexing disabled")
)

// Config declares one collection. It is written to collection.json at
// create time and reread on open; the zero value of every field except
// Dim is usable.
type Config struct {
	// Dim is the vector dimensionality (required, immutable).
	Dim int `json:"dim"`
	// Metric names the distance metric: "L2" (default), "sqL2",
	// "cosine", "ip" (vec.ParseMetric spellings).
	Metric string `json:"metric,omitempty"`
	// Frozen serves from the flat frozen layout; SQ8 adds quantized
	// candidate generation with RerankK re-ranking (see core.Config).
	Frozen  bool `json:"frozen,omitempty"`
	SQ8     bool `json:"sq8,omitempty"`
	RerankK int  `json:"rerank_k,omitempty"`
	// EfSearch overrides the HNSW search beam width (0 = library default).
	EfSearch int `json:"ef_search,omitempty"`
	// MaxInflight bounds concurrently admitted requests (searches and
	// mutations) for this collection; 0 means unlimited. This is the
	// per-tenant quota layered on top of the gateway's global bounded
	// queue: the queue protects the process, the quota protects tenants
	// from each other.
	MaxInflight int `json:"max_inflight,omitempty"`
	// Seed makes index construction reproducible (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Lexical opts the collection into hybrid retrieval: text upserts are
	// BM25-indexed and persisted, and /hybrid searches are served. Off by
	// default because every text upsert pays tokenization and the text
	// sidecar grows checkpoints.
	Lexical bool `json:"lexical,omitempty"`
	// BM25K1 / BM25B tune BM25 term-frequency saturation and length
	// normalization (0 selects the standard 1.2 / 0.75).
	BM25K1 float64 `json:"bm25_k1,omitempty"`
	BM25B  float64 `json:"bm25_b,omitempty"`
	// Stopwords are dropped at tokenization time; they never enter the
	// index and never score. Immutable after create (they are part of the
	// durability contract). Use lexical.DefaultStopwords for English.
	Stopwords []string `json:"stopwords,omitempty"`
}

// lexicalConfig maps the collection's BM25 settings onto the index
// config, or nil when the collection is not lexical.
func (c Config) lexicalConfig() *lexical.Config {
	if !c.Lexical {
		return nil
	}
	return &lexical.Config{K1: c.BM25K1, B: c.BM25B, Stopwords: c.Stopwords}
}

func (c *Config) fill() error {
	if c.Dim <= 0 {
		return fmt.Errorf("collection: config needs a positive dim, got %d", c.Dim)
	}
	if c.Metric == "" {
		c.Metric = vec.L2.String()
	}
	m, err := vec.ParseMetric(strings.ToLower(c.Metric))
	if err != nil {
		return fmt.Errorf("collection: %w", err)
	}
	c.Metric = m.String() // canonical spelling in collection.json
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SQ8 && !c.Frozen {
		return fmt.Errorf("collection: sq8 requires frozen")
	}
	return nil
}

// engineConfig maps the collection Config onto core.Config. Frozen/SQ8
// are intentionally NOT set here: the durable store wraps the plain
// HNSW engine and the registry freezes it afterwards, matching the
// store-then-freeze order the rest of the system uses.
func (c Config) engineConfig() (core.Config, error) {
	m, err := vec.ParseMetric(strings.ToLower(c.Metric))
	if err != nil {
		return core.Config{}, err
	}
	ec := core.DefaultConfig(1) // an empty engine has one partition
	ec.Metric = m
	ec.RerankK = c.RerankK
	ec.Seed = c.Seed
	return ec, nil
}

// Collection is one live tenant: engine + durable store + quota.
type Collection struct {
	name string
	cfg  Config
	dur  *store.Durable

	inflight atomic.Int64
	draining atomic.Bool

	// Hybrid search counters by fusion mode, surfaced in Varz.
	hybridRRF      atomic.Int64
	hybridWeighted atomic.Int64
}

// Name returns the collection's registry name.
func (c *Collection) Name() string { return c.name }

// Config returns the collection's declared configuration.
func (c *Collection) Config() Config { return c.cfg }

// Engine exposes the underlying engine for read-only introspection
// (varz, benchmarks). Mutations must go through the Collection so they
// hit the WAL and the admission quota.
func (c *Collection) Engine() *core.Engine { return c.dur.Engine() }

// Store exposes the durability layer (stats, checkpoint tooling).
func (c *Collection) Store() *store.Durable { return c.dur }

// Inflight reports the currently admitted request count.
func (c *Collection) Inflight() int64 { return c.inflight.Load() }

// acquire admits one request against the quota, release undoes it.
// The post-increment draining recheck closes the race with Drain: a
// request that slips past the flag before it is set either lands its
// increment before Drain's poll (and is waited for) or sees the flag.
func (c *Collection) acquire() error {
	if c.draining.Load() {
		return ErrDraining
	}
	n := c.inflight.Add(1)
	if max := int64(c.cfg.MaxInflight); max > 0 && n > max {
		c.inflight.Add(-1)
		return ErrQuota
	}
	if c.draining.Load() {
		c.inflight.Add(-1)
		return ErrDraining
	}
	return nil
}

func (c *Collection) release() { c.inflight.Add(-1) }

// Acquire reserves one admission slot against the quota without doing
// any work — for embedders coordinating external operations with the
// collection's admission control. Every successful Acquire must be
// paired with a Release.
func (c *Collection) Acquire() error { return c.acquire() }

// Release returns a slot taken by Acquire.
func (c *Collection) Release() { c.release() }

// checkDim rejects a vector of the wrong dimensionality with an error
// the gateway maps to 400.
func (c *Collection) checkDim(v []float32) error {
	if len(v) != c.cfg.Dim {
		return fmt.Errorf("collection %s: vector dim %d, collection dim %d", c.name, len(v), c.cfg.Dim)
	}
	return nil
}

// Search answers the approximate k nearest neighbors of q.
func (c *Collection) Search(q []float32, k int) ([]topk.Result, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	defer c.release()
	return c.Engine().Search(q, k)
}

// SearchFiltered answers with the filter pushed into the traversal.
func (c *Collection) SearchFiltered(q []float32, k int, f *filter.Expr) ([]topk.Result, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	defer c.release()
	return c.Engine().SearchFiltered(q, k, f)
}

// SearchBatchFiltered answers a query batch under one pushed-down filter
// (nil for none). One admission for the whole batch: the quota bounds
// concurrent requests, not queries.
func (c *Collection) SearchBatchFiltered(ctx context.Context, queries *vec.Dataset, k int, f *filter.Expr, threads int) ([][]topk.Result, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	defer c.release()
	return c.Engine().SearchBatchFiltered(ctx, queries, k, f, threads)
}

// Upsert durably inserts a vector with its optional attributes (tags
// for filtered search, document text for hybrid retrieval). Text needs a
// collection created with "lexical": true.
func (c *Collection) Upsert(v []float32, id int64, a store.Attrs) error {
	if a.Text != nil && !c.cfg.Lexical {
		return fmt.Errorf("%w: %q", ErrLexicalDisabled, c.name)
	}
	if err := c.checkDim(v); err != nil {
		return err
	}
	if err := c.acquire(); err != nil {
		return err
	}
	defer c.release()
	return c.dur.UpsertWith(v, id, a)
}

// SearchHybrid answers a hybrid (vector + BM25 text) query, fusing the
// two legs per opts. The collection must be lexical.
func (c *Collection) SearchHybrid(q []float32, text string, k int, opts core.HybridOptions) ([]core.HybridResult, error) {
	if !c.cfg.Lexical {
		return nil, fmt.Errorf("%w: %q", ErrLexicalDisabled, c.name)
	}
	if len(q) != 0 {
		if err := c.checkDim(q); err != nil {
			return nil, err
		}
	}
	if err := c.acquire(); err != nil {
		return nil, err
	}
	defer c.release()
	rs, err := c.Engine().SearchHybrid(q, text, k, opts)
	if err == nil {
		if opts.Fusion == core.FusionWeighted {
			c.hybridWeighted.Add(1)
		} else {
			c.hybridRRF.Add(1)
		}
	}
	return rs, err
}

// Delete durably tombstones an ID.
func (c *Collection) Delete(id int64) error {
	if err := c.acquire(); err != nil {
		return err
	}
	defer c.release()
	return c.dur.Delete(id)
}

// Checkpoint snapshots the collection at its current watermark.
func (c *Collection) Checkpoint() error { return c.dur.Checkpoint() }

// Drain stops admitting requests and waits (bounded by ctx) for the
// in-flight ones to finish. It is idempotent and leaves the collection
// permanently draining; Drop and registry Close call it.
func (c *Collection) Drain(ctx context.Context) error {
	c.draining.Store(true)
	for c.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("collection %s: drain: %w (%d in flight)", c.name, ctx.Err(), c.inflight.Load())
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// TagVarz adds the tag store's sizes and the filter planner's decisions
// to an engine's /varz section: how many filtered searches scanned their
// candidates and how many ran the beam, and the candidates they counted
// — filtered_candidates over filtered_scans + filtered_beams is the mean
// selectivity the planner saw. The single-engine gateway and every
// collection report the same keys.
func TagVarz(m map[string]any, e *core.Engine) {
	ts := e.TagStats()
	m["tag_terms"] = ts.Terms
	m["tag_postings"] = ts.Postings
	m["filtered_scans"] = ts.Scans
	m["filtered_beams"] = ts.Beams
	m["filtered_candidates"] = ts.Candidates
}

// SectionVarz adds the "lexical" section of an engine that indexes text
// and the "frozen" section of one serving the frozen layout — built once,
// like TagVarz, so the single-engine gateway and the collections cannot
// drift apart.
func SectionVarz(m map[string]any, e *core.Engine, lexical bool) {
	if lexical {
		ls := e.LexicalStats()
		m["lexical"] = map[string]any{
			"docs":             ls.Docs,
			"terms":            ls.Terms,
			"postings_bytes":   ls.PostingsBytes,
			"avg_doc_len":      ls.AvgDocLen,
			"searches":         ls.Searches,
			"postings_scanned": ls.PostingsScanned,
			"k1":               ls.K1,
			"b":                ls.B,
		}
	}
	if fi, ok := e.FrozenInfo(); ok {
		m["frozen"] = map[string]any{
			"partitions":   fi.Partitions,
			"points":       fi.FrozenLen,
			"tail_points":  fi.TailLen,
			"arena_bytes":  fi.ArenaBytes,
			"sq8":          fi.Quantized,
			"searches":     fi.Searches,
			"quant_scans":  fi.QuantComps,
			"reranked":     fi.Reranked,
			"rerank_ratio": fi.RerankRatio(),
			"tail_scanned": fi.TailScanned,
			"refreezes":    fi.Refreezes,
		}
	}
}

// Varz returns the collection's observability section for /varz.
func (c *Collection) Varz() map[string]any {
	e := c.Engine()
	m := map[string]any{
		"dim":        c.cfg.Dim,
		"metric":     c.cfg.Metric,
		"points":     e.Len(),
		"partitions": e.Partitions(),
		"inserted":   e.Inserted(),
		"tombstones": e.Tombstones(),
		"tagged":     e.TagCount(),
		"inflight":   c.inflight.Load(),
		"draining":   c.draining.Load(),
	}
	TagVarz(m, e)
	SectionVarz(m, e, c.cfg.Lexical)
	if c.cfg.MaxInflight > 0 {
		m["max_inflight"] = c.cfg.MaxInflight
	}
	if lex, ok := m["lexical"].(map[string]any); ok {
		lex["hybrid_rrf"] = c.hybridRRF.Load()
		lex["hybrid_weighted"] = c.hybridWeighted.Load()
	}
	m["ingest"] = c.dur.Stats()
	return m
}
