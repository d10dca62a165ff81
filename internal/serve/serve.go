// Package serve is the online serving gateway: a long-lived HTTP front
// end over the engine's batched search core.
//
// The paper's protocol (Algorithms 3–4) answers *batches* of queries —
// routing, dispatch and result merging all amortize over the batch — but
// online traffic arrives one request at a time. The gateway bridges the
// two with a dynamic micro-batcher: concurrent in-flight requests are
// coalesced into one SearchBatch round (closed once it holds MaxBatch
// queries, or when a MaxWait accumulation window runs out), recovering
// the throughput that per-request dispatch would waste, exactly as the
// request-coalescing front ends of web-scale ANN systems (LANNS,
// HARMONY) do over their distributed cores. A request is one batcher
// entry however many queries it carries, and is never split: a single
// query is the one-query case of the path a batch POST takes.
//
// Around the batcher sit the production concerns:
//
//   - admission control: a bounded queue of queries sheds load (HTTP
//     429 + Retry-After) instead of letting latency collapse under
//     overload, refusing a request that does not fit as a whole;
//   - deadlines: each request's context plumbs down to the search call,
//     and requests that expire while queued are dropped before dispatch;
//   - caching: an LRU of recent results with single-flight deduplication,
//     so identical concurrent queries cost one search;
//   - drain: on shutdown the gateway stops admitting, finishes what is
//     queued, and only then returns.
//
// The HTTP side is one request pipeline (pipeline.go): a route table
// with one row per operation — search, hybrid, upsert, delete,
// collection create and drop — each served by the same steps in the
// same order: method, tenant, draining (on the rows that gate on it),
// write capability and breaker, size-limited decode, run, encode, with
// one error-to-status table behind every error body. The legacy
// /v1/<op> routes are the same rows with the tenant fixed to "default".
//
// The gateway serves either backend: the single-process core.Engine or
// the distributed core.Master driver (see Backend).
package serve

import (
	"context"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/store"
	"repro/internal/topk"
	"repro/internal/vec"
)

// BatchOutput is one backend round's answer. Results rows align with the
// queries. Degraded reports a partial answer: some partitions (shards in
// routed mode, VP-tree partitions in distributed mode) could not be
// searched, and FailedPartitions identifies them (deduplicated,
// ascending). A degraded round is still a valid answer — the rows just
// may miss neighbors from the listed partitions — so it is delivered
// with HTTP 200 plus degraded markers rather than an error, and it is
// never cached.
type BatchOutput struct {
	Results          [][]topk.Result
	Degraded         bool
	FailedPartitions []int
}

// Backend is the search core the gateway fronts. SearchBatch answers
// every query in queries with k neighbors each, honoring ctx
// cancellation (best-effort: a batch already dispatched to remote
// workers runs to completion). The batcher calls it from a single
// dispatcher goroutine, so implementations need not be safe for
// concurrent SearchBatch calls — which is what lets the single-driver
// core.Master serve here unchanged.
type Backend interface {
	// Dim is the vector dimensionality queries must have.
	Dim() int
	// MaxK bounds the per-query k this backend can return; 0 means
	// unbounded.
	MaxK() int
	SearchBatch(ctx context.Context, queries *vec.Dataset, k int) (BatchOutput, error)
}

// FilteredBackend is the optional filtered half of a backend: one round
// answering every query under the same tag filter, with the predicate
// pushed into the graph traversal rather than applied to the output.
// Requests whose filter is non-empty are refused with ErrFilterUnsupported
// when the backend lacks it. Like SearchBatch, it is called from the
// single dispatcher goroutine.
type FilteredBackend interface {
	SearchBatchFiltered(ctx context.Context, queries *vec.Dataset, k int, f *filter.Expr) (BatchOutput, error)
}

// TopologyNotifier is implemented by backends whose result-set identity
// can change underneath the gateway — the shard router, whose shard map
// can be swapped and whose replicas go unhealthy and recover. The
// gateway registers a callback and purges its result cache on every
// topology change, so a cached row can never outlive the topology it
// was computed against.
type TopologyNotifier interface {
	// OnTopologyChange registers fn to be called (from any goroutine)
	// after every topology transition: shard-map swap, replica marked
	// down, replica recovered.
	OnTopologyChange(fn func())
}

// Mutator is the optional write half of a backend. Backends that
// implement it get POST /v1/upsert and /v1/delete; the gateway answers
// 501 on those routes otherwise. Unlike SearchBatch, mutations are
// called concurrently from handler goroutines — implementations must be
// thread-safe.
type Mutator interface {
	// Upsert inserts a vector with its optional attributes: tags for
	// filtered search and/or document text for hybrid retrieval.
	Upsert(v []float32, id int64, a store.Attrs) error
	Delete(id int64) error
}

// HybridBackend is the optional hybrid-retrieval half of a backend: a
// vector leg and/or a BM25 text leg, rank-fused (see core.SearchHybrid).
// Hybrid queries bypass the micro-batcher — they are per-query by
// nature (each carries its own text) — so implementations are called
// concurrently from handler goroutines and must be thread-safe.
// POST /v1/collections/{name}/hybrid answers 501 when the backend
// lacks this.
type HybridBackend interface {
	SearchHybrid(ctx context.Context, q []float32, text string, k int, opts core.HybridOptions) ([]core.HybridResult, error)
}

// VarzProvider lets a backend contribute extra top-level sections to
// /varz (e.g. engine occupancy, WAL and compaction counters).
type VarzProvider interface {
	Varz() map[string]any
}

// WriteHealth is the optional storage-health probe of a backend's write
// path. WriteFailed returns nil while the path is healthy, or the error
// that poisoned it (e.g. a failed WAL fsync). The gateway's circuit
// breaker checks it before every mutation: a failed write path turns
// /v1/upsert and /v1/delete into 503s and flips /healthz?ready=1 to
// not-ready, while searches — which never touch storage — keep serving.
type WriteHealth interface {
	WriteFailed() error
}

// EngineBackend adapts the single-process core.Engine. With Store set,
// mutations go through the durable write-ahead path; otherwise they
// apply to the in-memory engine only and are lost on restart.
type EngineBackend struct {
	Engine *core.Engine
	// Threads is the worker-pool width per batch (0 = GOMAXPROCS).
	Threads int
	// Store, when non-nil, is the durability layer mutations route
	// through (WAL + snapshots + compaction).
	Store *store.Durable
	// Lexical enables text upserts and hybrid search (annserve -lexical).
	// Off by default: the gate mirrors the per-collection "lexical"
	// config flag, keeping tokenization cost and text-sidecar growth
	// opt-in on every serving path.
	Lexical bool
}

// Dim implements Backend.
func (b *EngineBackend) Dim() int { return b.Engine.Dim() }

// MaxK implements Backend; the engine serves any k.
func (b *EngineBackend) MaxK() int { return 0 }

// SearchBatch implements Backend. A single-process engine either
// answers fully or errors; it is never degraded.
func (b *EngineBackend) SearchBatch(ctx context.Context, queries *vec.Dataset, k int) (BatchOutput, error) {
	return b.SearchBatchFiltered(ctx, queries, k, nil)
}

// SearchBatchFiltered implements FilteredBackend: the whole round runs
// under one pushed-down predicate (nil for none).
func (b *EngineBackend) SearchBatchFiltered(ctx context.Context, queries *vec.Dataset, k int, f *filter.Expr) (BatchOutput, error) {
	res, err := b.Engine.SearchBatchFiltered(ctx, queries, k, f, b.Threads)
	return BatchOutput{Results: res}, err
}

// Upsert implements Mutator. Text requires Lexical. Without a store
// the attributes land in the in-memory engine only, like the vector
// itself.
func (b *EngineBackend) Upsert(v []float32, id int64, a store.Attrs) error {
	if a.Text != nil && !b.Lexical {
		return collection.ErrLexicalDisabled
	}
	if b.Store != nil {
		return b.Store.UpsertWith(v, id, a)
	}
	if err := b.Engine.Add(v, id); err != nil {
		return err
	}
	if a.Tags != nil {
		b.Engine.SetTags(id, a.Tags)
	}
	if a.Text != nil {
		b.Engine.SetText(id, *a.Text, v)
	}
	return nil
}

// SearchHybrid implements HybridBackend. Requires Lexical.
func (b *EngineBackend) SearchHybrid(ctx context.Context, q []float32, text string, k int, opts core.HybridOptions) ([]core.HybridResult, error) {
	if !b.Lexical {
		return nil, collection.ErrLexicalDisabled
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.Engine.SearchHybrid(q, text, k, opts)
}

// Delete implements Mutator.
func (b *EngineBackend) Delete(id int64) error {
	if b.Store != nil {
		return b.Store.Delete(id)
	}
	b.Engine.Delete(id)
	return nil
}

// WriteFailed implements WriteHealth. A memory-only backend cannot
// fail durably; with a store, a poisoned WAL (failed fsync, ENOSPC)
// breaks the write path until a restart re-reads the log.
func (b *EngineBackend) WriteFailed() error {
	if b.Store != nil {
		return b.Store.Failed()
	}
	return nil
}

// Varz implements VarzProvider: engine occupancy, the lexical and frozen
// sections (one builder with the collections) and, when durable, the
// store's WAL/compaction counters under "ingest".
func (b *EngineBackend) Varz() map[string]any {
	engine := map[string]any{
		"points":     b.Engine.Len(),
		"partitions": b.Engine.Partitions(),
		"inserted":   b.Engine.Inserted(),
		"tombstones": b.Engine.Tombstones(),
		"local":      b.Engine.LocalKind(),
	}
	collection.TagVarz(engine, b.Engine)
	m := map[string]any{"engine": engine}
	collection.SectionVarz(m, b.Engine, b.Lexical)
	if b.Store != nil {
		m["ingest"] = b.Store.Stats()
	}
	return m
}

// MasterBackend adapts the distributed core.Master driver handle. The
// cluster's k is fixed at build time (Config.K); requests asking for
// fewer neighbors are trimmed by the gateway, requests asking for more
// are capped at MaxK by the server.
type MasterBackend struct {
	Master *core.Master
}

// Dim implements Backend.
func (b *MasterBackend) Dim() int { return b.Master.Dim() }

// MaxK implements Backend.
func (b *MasterBackend) MaxK() int { return b.Master.K() }

// SearchBatch implements Backend. The distributed protocol has its own
// deadline machinery (Config.QueryTimeout failover); ctx is checked
// before dispatch so queue-expired batches never reach the wire. A
// batch the master finished Degraded (replica failover exhausted)
// surfaces as a degraded BatchOutput with the failed VP-tree
// partitions listed.
func (b *MasterBackend) SearchBatch(ctx context.Context, queries *vec.Dataset, k int) (BatchOutput, error) {
	if err := ctx.Err(); err != nil {
		return BatchOutput{}, err
	}
	res, err := b.Master.Search(queries)
	if err != nil {
		return BatchOutput{}, err
	}
	out := res.Results
	for i := range out {
		if len(out[i]) > k {
			out[i] = out[i][:k]
		}
	}
	return BatchOutput{
		Results:          out,
		Degraded:         res.Degraded,
		FailedPartitions: res.FailedPartitions,
	}, nil
}
