package store

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// Stats aggregates the store's durability counters. Counters are
// atomics; the fsync latency reservoir is summarized on scrape.
type Stats struct {
	Upserts      atomic.Int64 // mutations applied through Upsert
	Deletes      atomic.Int64 // mutations applied through Delete
	WALAppends   atomic.Int64 // records appended to the WAL
	WALBytes     atomic.Int64 // bytes appended (frame + payload)
	WALFsyncs    atomic.Int64 // fsync calls (group commit batches)
	WALRotations atomic.Int64 // segment rotations
	WALTruncated atomic.Int64 // segments deleted by checkpoint truncation
	WALFailures  atomic.Int64 // I/O errors that poisoned the WAL writer
	Replayed     atomic.Int64 // records replayed at the last Open
	Snapshots    atomic.Int64 // checkpoints written
	Compactions  atomic.Int64 // partition rebuilds swapped in
	Folded       atomic.Int64 // dead rows folded out by compaction
	CaughtUp     atomic.Int64 // sidelog inserts re-applied during swaps
	TmpSwept     atomic.Int64 // stale *.tmp files removed at Open
	Quarantined  atomic.Int64 // corrupt snapshots renamed *.corrupt at Open
	Fallbacks    atomic.Int64 // Opens that recovered from a previous generation

	fsyncUS metrics.Reservoir
}

// Snapshot is the JSON shape the gateway's /varz embeds as "ingest".
type Snapshot struct {
	Upserts      int64 `json:"upserts"`
	Deletes      int64 `json:"deletes"`
	WALAppends   int64 `json:"wal_appends"`
	WALBytes     int64 `json:"wal_bytes"`
	WALFsyncs    int64 `json:"wal_fsyncs"`
	WALRotations int64 `json:"wal_rotations"`
	WALTruncated int64 `json:"wal_truncated"`
	Replayed     int64 `json:"replayed"`
	Snapshots    int64 `json:"snapshots"`
	Compactions  int64 `json:"compactions"`
	Folded       int64 `json:"folded_tombstones"`
	CaughtUp     int64 `json:"sidelog_caught_up"`

	// Storage-failure state: once WALFailed flips true the write path is
	// permanently poisoned (restart to recover) and the gateway's
	// circuit breaker rejects mutations.
	WALFailed     bool   `json:"wal_failed"`
	WALFailReason string `json:"wal_fail_reason,omitempty"`
	WALFailures   int64  `json:"wal_failures"`
	TmpSwept      int64  `json:"tmp_swept"`
	Quarantined   int64  `json:"snapshots_quarantined"`
	Fallbacks     int64  `json:"snapshot_fallbacks"`

	LastSeq      uint64 `json:"last_seq"`     // newest appended record
	Watermark    uint64 `json:"watermark"`    // covered by the newest snapshot
	WALSegments  int    `json:"wal_segments"` // live segment files
	WALDiskBytes int64  `json:"wal_disk_bytes"`

	// Engine-side ingestion state: live inserts since construction and
	// dead rows awaiting compaction.
	EngineInserted   int64 `json:"engine_inserted"`
	EngineTombstones int   `json:"engine_tombstones"`
	EnginePoints     int   `json:"engine_points"`

	FsyncUS metrics.Summary `json:"fsync_us"`
}

// Stats captures the store's counters plus the engine's ingestion
// state.
func (d *Durable) Stats() Snapshot {
	d.mu.Lock()
	lastSeq := d.seq
	var watermark uint64
	if len(d.gens) > 0 {
		watermark = d.gens[0].Watermark
	}
	d.mu.Unlock()
	disk, nseg := d.wal.diskBytes()
	failed := d.Failed()
	s := &d.stats
	snap := Snapshot{
		Upserts:      s.Upserts.Load(),
		Deletes:      s.Deletes.Load(),
		WALAppends:   s.WALAppends.Load(),
		WALBytes:     s.WALBytes.Load(),
		WALFsyncs:    s.WALFsyncs.Load(),
		WALRotations: s.WALRotations.Load(),
		WALTruncated: s.WALTruncated.Load(),
		Replayed:     s.Replayed.Load(),
		Snapshots:    s.Snapshots.Load(),
		Compactions:  s.Compactions.Load(),
		Folded:       s.Folded.Load(),
		CaughtUp:     s.CaughtUp.Load(),

		WALFailed:   failed != nil,
		WALFailures: s.WALFailures.Load(),
		TmpSwept:    s.TmpSwept.Load(),
		Quarantined: s.Quarantined.Load(),
		Fallbacks:   s.Fallbacks.Load(),

		LastSeq:      lastSeq,
		Watermark:    watermark,
		WALSegments:  nseg,
		WALDiskBytes: disk,

		EngineInserted:   d.eng.Inserted(),
		EngineTombstones: d.eng.Tombstones(),
		EnginePoints:     d.eng.Len(),

		FsyncUS: s.fsyncUS.Summarize(),
	}
	if failed != nil {
		snap.WALFailReason = failed.Error()
	}
	return snap
}
