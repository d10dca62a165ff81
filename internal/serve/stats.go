package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Stats aggregates the gateway's served-traffic counters. Counters are
// atomics (hot path); the latency/batch-size reservoirs are mutex-backed
// rings (metrics.Reservoir) summarized only on /varz scrape.
type Stats struct {
	Requests       atomic.Int64 // queries received over HTTP (after parsing)
	Batches        atomic.Int64 // backend rounds dispatched
	Queries        atomic.Int64 // queries that reached the backend
	Shed           atomic.Int64 // admissions refused with 429
	DeadlineDrops  atomic.Int64 // queued entries expired before dispatch
	CacheHits      atomic.Int64 // answered from the result cache
	CacheMisses    atomic.Int64 // had to search (cache enabled only)
	Coalesced      atomic.Int64 // answered by another request's single-flight search
	BackendErrors  atomic.Int64 // backend rounds that failed
	BadRequests    atomic.Int64 // malformed HTTP requests
	Upserts        atomic.Int64 // vectors ingested via POST /v1/upsert
	Deletes        atomic.Int64 // IDs tombstoned via POST /v1/delete
	WritesRejected atomic.Int64 // mutations refused by the open write circuit breaker

	HybridRequests  atomic.Int64 // hybrid queries received (after parsing)
	HybridCacheHits atomic.Int64 // answered from the hybrid result cache

	DegradedBatches   atomic.Int64 // backend rounds that returned a partial (degraded) answer
	DegradedResponses atomic.Int64 // HTTP responses delivered with degraded markers
	TopologyPurges    atomic.Int64 // cache purges forced by shard-topology changes

	queueDepth atomic.Int64 // queries currently admitted but not collected

	batchSizes metrics.Reservoir // queries per dispatched round
	latencies  metrics.Reservoir // per-request end-to-end µs (HTTP handler view)
}

// NewStats returns an empty collector.
func NewStats() *Stats { return &Stats{} }

// recordBatch accounts one dispatched round.
func (s *Stats) recordBatch(size int) {
	s.Batches.Add(1)
	s.Queries.Add(int64(size))
	s.batchSizes.Push(float64(size))
}

// RecordLatency accounts one served request's end-to-end latency.
func (s *Stats) RecordLatency(d time.Duration) {
	s.latencies.Push(float64(d.Microseconds()))
}

// Snapshot is the JSON shape /varz exports.
type Snapshot struct {
	Requests       int64 `json:"requests"`
	Batches        int64 `json:"batches"`
	Queries        int64 `json:"queries"`
	Shed           int64 `json:"shed"`
	DeadlineDrops  int64 `json:"deadline_drops"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	Coalesced      int64 `json:"coalesced"`
	BackendErrors  int64 `json:"backend_errors"`
	BadRequests    int64 `json:"bad_requests"`
	Upserts        int64 `json:"upserts"`
	Deletes        int64 `json:"deletes"`
	WritesRejected int64 `json:"writes_rejected"`
	QueueDepth     int64 `json:"queue_depth"`

	HybridRequests  int64 `json:"hybrid_requests"`
	HybridCacheHits int64 `json:"hybrid_cache_hits"`

	DegradedBatches   int64 `json:"degraded_batches"`
	DegradedResponses int64 `json:"degraded_responses"`
	TopologyPurges    int64 `json:"topology_purges"`

	// MeanBatchSize is Queries/Batches — the amortization the
	// micro-batcher is buying.
	MeanBatchSize float64         `json:"mean_batch_size"`
	BatchSize     metrics.Summary `json:"batch_size"`
	LatencyUS     metrics.Summary `json:"latency_us"`

	Runtime metrics.RuntimeSnapshot `json:"runtime"`
}

// Snapshot captures every counter plus a process runtime snapshot.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{
		Requests:       s.Requests.Load(),
		Batches:        s.Batches.Load(),
		Queries:        s.Queries.Load(),
		Shed:           s.Shed.Load(),
		DeadlineDrops:  s.DeadlineDrops.Load(),
		CacheHits:      s.CacheHits.Load(),
		CacheMisses:    s.CacheMisses.Load(),
		Coalesced:      s.Coalesced.Load(),
		BackendErrors:  s.BackendErrors.Load(),
		BadRequests:    s.BadRequests.Load(),
		Upserts:        s.Upserts.Load(),
		Deletes:        s.Deletes.Load(),
		WritesRejected: s.WritesRejected.Load(),
		QueueDepth:     s.queueDepth.Load(),

		HybridRequests:  s.HybridRequests.Load(),
		HybridCacheHits: s.HybridCacheHits.Load(),

		DegradedBatches:   s.DegradedBatches.Load(),
		DegradedResponses: s.DegradedResponses.Load(),
		TopologyPurges:    s.TopologyPurges.Load(),
		BatchSize:         s.batchSizes.Summarize(),
		LatencyUS:         s.latencies.Summarize(),
		Runtime:           metrics.CaptureRuntime(),
	}
	if snap.Batches > 0 {
		snap.MeanBatchSize = float64(snap.Queries) / float64(snap.Batches)
	}
	return snap
}
