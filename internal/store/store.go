// Package store makes dynamic engine updates durable. The paper serves
// a static snapshot built once by distributed construction; the engine
// grew dynamic Add/Delete (internal/core/dynamic.go) and an HTTP
// gateway, but every mutation lived only in memory — a restart silently
// lost all post-build inserts and resurrected deleted IDs. This
// package is the missing persistence layer, the shard-local durability
// primitive web-scale ANN systems (LANNS, HARMONY) build their serving
// tiers on:
//
//   - a CRC-framed, length-prefixed write-ahead log with group-commit
//     fsync batching (wal.go) records every upsert and delete before it
//     is applied;
//   - snapshot + replay recovery: startup loads the newest engine
//     snapshot (core.Engine Save format plus a MANIFEST carrying the
//     WAL sequence watermark) and replays only the WAL tail, truncating
//     segments the snapshot covers;
//   - a background compactor (compact.go) that rebuilds a partition's
//     HNSW graph offline once dead rows pass a configurable ratio,
//     atomically swaps it into the live engine, and writes a fresh
//     snapshot.
//
// Upserts log the HNSW level the insert draws (Engine.DrawLevel), so
// replay via Engine.AddAt rebuilds a structurally identical graph:
// recovery restores the exact pre-crash search state, not merely an
// equivalent dataset.
//
// The store assumes the disk FAILS. Every I/O operation goes through an
// fsx.FS (fault-injectable in tests), and the failure semantics are
// explicit:
//
//   - a failed WAL fsync permanently poisons the writer — all further
//     writes return ErrWALFailed, never a silent retry (wal.go);
//   - the manifest and snapshots are CRC32-C checksummed; a corrupt
//     snapshot generation is quarantined (renamed *.corrupt) and
//     recovery falls back to the previous generation plus a longer WAL
//     replay — the store retains two snapshot generations and the WAL
//     back to the older one's watermark for exactly this;
//   - a corrupt manifest or mid-WAL corruption fails Open loudly with
//     a typed *CorruptError: that is real data loss and must page an
//     operator, not limp onward;
//   - stale *.tmp files from interrupted atomic renames are swept on
//     Open.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/lexical"
)

var (
	// ErrNoStore reports an Open on a directory with no snapshot.
	ErrNoStore = errors.New("store: no snapshot in directory (use Create)")
	// errClosed reports use after Close.
	errClosed = errors.New("store: closed")
)

// Options tunes durability and compaction.
type Options struct {
	// SyncEvery fsyncs the WAL after this many records; 1 makes every
	// mutation durable before its call returns, larger values group-
	// commit (default 64). A crash loses at most the unsynced tail.
	SyncEvery int
	// SyncInterval bounds how long a record below the SyncEvery
	// threshold may sit unsynced (default 50ms; negative disables the
	// background fsync).
	SyncInterval time.Duration
	// SegmentBytes rotates the WAL past this size (default 64 MiB).
	SegmentBytes int64
	// CompactRatio triggers a partition rebuild once its
	// dead/live row ratio exceeds this (default 0.25; negative
	// disables automatic compaction — CompactPartition still works).
	CompactRatio float64
	// CompactInterval is the compactor's scan period (default 2s).
	CompactInterval time.Duration
	// Threads is the rebuild parallelism (default GOMAXPROCS).
	Threads int
	// FS is the filesystem all store I/O goes through (default the
	// real OS). Tests and chaos drills inject fsx.Faulty here.
	FS fsx.FS
	// Lexical, when non-nil, configures the engine's BM25 index (k1, b,
	// stopwords) before any text is restored or replayed. Tokenization
	// happens at indexing time, so recovery must apply the same
	// parameters the writer used — collections plumb their
	// collection.json lexical settings through here.
	Lexical *lexical.Config
	// Logf, when non-nil, receives recovery and compaction progress.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	if o.SyncInterval == 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.CompactRatio == 0 {
		o.CompactRatio = 0.25
	}
	if o.CompactInterval <= 0 {
		o.CompactInterval = 2 * time.Second
	}
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.FS == nil {
		o.FS = fsx.OS{}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// generation is one recoverable snapshot: the engine image plus the
// dynamic state (dead rows, inserted counter) as of its watermark, whose
// WAL records are truncated once covered. Engine.Save does not capture
// the inserted counter, and images written before it captured dead rows
// hold none.
type generation struct {
	Snapshot  string `json:"snapshot"`         // snapshot file name within the store dir
	Watermark uint64 `json:"watermark"`        // last WAL seq folded into the snapshot
	CRC       uint32 `json:"crc32c,omitempty"` // CRC32-C of the snapshot file (0 = legacy, unverifiable)
	Bytes     int64  `json:"bytes,omitempty"`  // snapshot file size

	// Dead lists each partition's dead rows, ascending, keyed by
	// partition (Engine.DeadRows). Generations written before liveness
	// moved to rows carry Tombstones, deleted IDs, instead: every row of
	// such an ID opens dead.
	Dead       map[int][]uint32 `json:"dead,omitempty"`
	Tombstones []int64          `json:"tombstones,omitempty"`
	Inserted   int64            `json:"inserted,omitempty"`

	// Tags is the per-vector metadata sidecar (tags-<seq>.json) holding
	// the tag store as of the watermark, absent when no vector carries
	// tags. It is checksummed like the snapshot: a corrupt sidecar fails
	// the whole generation (serving matching vectors with silently lost
	// filters would be worse than falling back a generation).
	Tags      string `json:"tags,omitempty"`
	TagsCRC   uint32 `json:"tags_crc32c,omitempty"`
	TagsBytes int64  `json:"tags_bytes,omitempty"`

	// Text is the lexical-document sidecar (text-<seq>.json) holding
	// every indexed document (raw text + vector copy) as of the
	// watermark, absent when no document is indexed. Checksummed like
	// the tags sidecar: a corrupt sidecar quarantines the generation and
	// recovery falls back to the previous one plus a longer WAL replay,
	// so the BM25 index is never silently partial.
	Text      string `json:"text,omitempty"`
	TextCRC   uint32 `json:"text_crc32c,omitempty"`
	TextBytes int64  `json:"text_bytes,omitempty"`
}

// manifest is the store's root pointer. Generations are ordered newest
// first; the store retains two (current + previous) so a corrupt
// current snapshot can fall back to the previous one plus a longer WAL
// replay. Written atomically (tmp + rename + dir fsync) inside a
// checksummed envelope, so a crash mid-checkpoint leaves the previous
// manifest in force and torn manifest writes are detected, not parsed.
type manifest struct {
	Generations []generation `json:"generations"`
}

// manifestEnvelope is the on-disk MANIFEST format: the manifest JSON as
// an opaque payload plus its CRC32-C. Legacy stores (no envelope) are
// still readable; they simply cannot be checksum-verified.
type manifestEnvelope struct {
	Payload json.RawMessage `json:"payload"`
	CRC     uint32          `json:"crc32c"`
}

// legacyManifest is the pre-envelope single-generation MANIFEST shape.
type legacyManifest struct {
	Snapshot   string  `json:"snapshot"`
	Watermark  uint64  `json:"watermark"`
	Tombstones []int64 `json:"tombstones,omitempty"`
	Inserted   int64   `json:"inserted,omitempty"`
}

const (
	manifestName = "MANIFEST"
	// corruptSuffix marks quarantined files: renamed aside so recovery
	// stops tripping over them but an operator can still inspect.
	corruptSuffix = ".corrupt"
	// maxGenerations bounds how many snapshot generations the store
	// retains (and how far back the WAL reaches).
	maxGenerations = 2
)

func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%020d.ann", seq) }

func tagsName(seq uint64) string { return fmt.Sprintf("tags-%020d.json", seq) }

// tagsFile is the on-disk shape of the tags sidecar.
type tagsFile struct {
	Tags map[int64]map[string]string `json:"tags"`
}

func textsName(seq uint64) string { return fmt.Sprintf("text-%020d.json", seq) }

// textsFile is the on-disk shape of the lexical-document sidecar. Raw
// text (not postings) is persisted: the deterministic tokenizer
// rebuilds the inverted index on load, so the format stays independent
// of index internals.
type textsFile struct {
	Docs map[int64]lexical.Doc `json:"docs"`
}

func writeManifest(fs fsx.FS, dir string, m manifest) error {
	b, err := encodeManifest(m)
	if err != nil {
		return err
	}
	_, _, err = fsx.WriteFileAtomic(fs, filepath.Join(dir, manifestName), b)
	return err
}

// encodeManifest renders m as MANIFEST bytes: the checksummed envelope.
func encodeManifest(m manifest) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(manifestEnvelope{
		Payload: payload,
		CRC:     crc32.Checksum(payload, crcTable),
	})
	return append(b, '\n'), err
}

// readManifest loads and checksum-verifies the manifest. A corrupt
// manifest is a typed *CorruptError — with both generations' metadata
// gone there is nothing safe to fall back to, so this fails loudly
// rather than guess. When the manifest is missing but snapshots exist
// (crash between snapshot rename and the very first manifest write),
// the newest snapshot wins, unverifiable.
func readManifest(fs fsx.FS, dir string) (manifest, error) {
	path := filepath.Join(dir, manifestName)
	b, err := fs.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return manifest{}, err
		}
		snaps, gerr := fsx.Glob(fs, filepath.Join(dir, "snap-*.ann"))
		if gerr != nil {
			return manifest{}, gerr
		}
		if len(snaps) == 0 {
			return manifest{}, ErrNoStore
		}
		sort.Strings(snaps)
		newest := filepath.Base(snaps[len(snaps)-1])
		var seq uint64
		if _, err := fmt.Sscanf(newest, "snap-%020d.ann", &seq); err != nil {
			return manifest{}, fmt.Errorf("store: unparseable snapshot name %q", newest)
		}
		return manifest{Generations: []generation{{Snapshot: newest, Watermark: seq}}}, nil
	}
	return parseManifest(path, b)
}

// parseManifest decodes MANIFEST bytes read from path: the checksummed
// envelope, or the legacy plain-JSON single generation. Whatever it
// refuses is a *CorruptError.
func parseManifest(path string, b []byte) (manifest, error) {
	var env manifestEnvelope
	if jerr := json.Unmarshal(b, &env); jerr != nil {
		return manifest{}, &CorruptError{Path: path, Reason: "manifest is not JSON: " + jerr.Error()}
	}
	if env.Payload == nil {
		// Legacy plain-JSON manifest: single generation, no checksum.
		var lm legacyManifest
		if jerr := json.Unmarshal(b, &lm); jerr != nil || lm.Snapshot == "" {
			return manifest{}, &CorruptError{Path: path, Reason: "manifest carries neither an envelope nor a legacy snapshot pointer"}
		}
		return manifest{Generations: []generation{{
			Snapshot: lm.Snapshot, Watermark: lm.Watermark,
			Tombstones: lm.Tombstones, Inserted: lm.Inserted,
		}}}, nil
	}
	if got := crc32.Checksum(env.Payload, crcTable); got != env.CRC {
		return manifest{}, &CorruptError{Path: path, Reason: "manifest CRC mismatch", WantCRC: env.CRC, GotCRC: got}
	}
	var m manifest
	if jerr := json.Unmarshal(env.Payload, &m); jerr != nil {
		return manifest{}, &CorruptError{Path: path, Reason: "manifest payload: " + jerr.Error()}
	}
	if len(m.Generations) == 0 {
		return manifest{}, &CorruptError{Path: path, Reason: "manifest has no generations"}
	}
	return m, nil
}

// GenerationInfo describes one retained snapshot generation, newest
// first (tooling surface; annwal).
type GenerationInfo struct {
	Snapshot   string `json:"snapshot"`
	Watermark  uint64 `json:"watermark"`
	CRC        uint32 `json:"crc32c"`
	Bytes      int64  `json:"bytes"`
	Tombstones int    `json:"tombstones"` // dead rows (deleted IDs in a parent generation)
}

// Manifest reads and checksum-verifies dir's manifest, returning the
// retained generations. A corrupt manifest is a *CorruptError.
func Manifest(dir string) ([]GenerationInfo, error) {
	m, err := readManifest(fsx.OS{}, dir)
	if err != nil {
		return nil, err
	}
	out := make([]GenerationInfo, len(m.Generations))
	for i, g := range m.Generations {
		out[i] = GenerationInfo{
			Snapshot: g.Snapshot, Watermark: g.Watermark,
			CRC: g.CRC, Bytes: g.Bytes, Tombstones: len(g.Tombstones),
		}
		for _, rows := range g.Dead {
			out[i].Tombstones += len(rows)
		}
	}
	return out, nil
}

// sweepTemps removes stale *.tmp files a crashed atomic rename left in
// the store directory, returning how many were removed.
func sweepTemps(fs fsx.FS, dir string, logf func(string, ...any)) (int, error) {
	stale, err := fsx.Glob(fs, filepath.Join(dir, "*.tmp"))
	if err != nil {
		return 0, err
	}
	for _, p := range stale {
		if err := fs.Remove(p); err != nil && !os.IsNotExist(err) {
			return 0, fmt.Errorf("store: sweeping stale temp %s: %w", p, err)
		}
		logf("store: swept stale temp file %s", filepath.Base(p))
	}
	return len(stale), nil
}

// readVerified reads one checkpoint file (what names it in errors) and
// checks it against the CRC32-C its generation recorded; 0 is a legacy
// generation that cannot be verified. A mismatch is a *CorruptError.
func readVerified(fs fsx.FS, dir, name, what string, want uint32) ([]byte, error) {
	path := filepath.Join(dir, name)
	b, err := fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s %s: %w", what, name, err)
	}
	if want != 0 {
		if got := crc32.Checksum(b, crcTable); got != want {
			return nil, &CorruptError{Path: path, Reason: what + " CRC mismatch", WantCRC: want, GotCRC: got}
		}
	}
	return b, nil
}

// readSidecar loads one verified JSON sidecar into v.
func readSidecar(fs fsx.FS, dir, name, what string, want uint32, v any) error {
	b, err := readVerified(fs, dir, name, what, want)
	if err != nil {
		return err
	}
	if jerr := json.Unmarshal(b, v); jerr != nil {
		return &CorruptError{Path: filepath.Join(dir, name), Reason: what + " is not JSON: " + jerr.Error()}
	}
	return nil
}

// loadGeneration reads, checksum-verifies, and decodes one snapshot
// generation. A checksum mismatch or undecodable image is a
// *CorruptError (wrapped), telling Open to quarantine and fall back.
// The sidecars are part of the generation's verification: a lost or
// corrupt one fails the generation rather than silently dropping every
// filter or serving hybrid queries over an emptied index.
func loadGeneration(fs fsx.FS, dir string, g generation, lex *lexical.Config) (*core.Engine, error) {
	b, err := readVerified(fs, dir, g.Snapshot, "snapshot", g.CRC)
	if err != nil {
		return nil, err
	}
	e, err := core.LoadEngine(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("store: decoding snapshot %s: %w", g.Snapshot, err)
	}
	// BM25 parameters must be in force before any text is restored or
	// replayed — tokenization happens at indexing time.
	if lex != nil {
		if err := e.SetLexicalConfig(*lex); err != nil {
			return nil, err
		}
	}
	// The snapshot file holds the graphs, and the dead rows too unless an
	// older build wrote it; the dead rows and inserted counter as of the
	// watermark also ride in the manifest (their WAL records were
	// truncated by the checkpoint that wrote them). Dead rows that do not
	// fit the image fail the generation like a bad CRC.
	if err := e.RestoreDynamic(g.Dead, g.Inserted); err != nil {
		return nil, &CorruptError{Path: filepath.Join(dir, manifestName), Reason: "generation " + g.Snapshot + ": " + err.Error()}
	}
	for _, id := range g.Tombstones {
		e.Delete(id)
	}
	if g.Tags != "" {
		var tf tagsFile
		if err := readSidecar(fs, dir, g.Tags, "tags sidecar", g.TagsCRC, &tf); err != nil {
			return nil, err
		}
		e.RestoreTags(tf.Tags)
	}
	if g.Text != "" {
		var xf textsFile
		if err := readSidecar(fs, dir, g.Text, "text sidecar", g.TextCRC, &xf); err != nil {
			return nil, err
		}
		e.RestoreTexts(xf.Docs)
	}
	return e, nil
}

// Durable wraps a core.Engine with write-ahead logging, snapshot
// recovery, and background compaction. All mutations must go through
// it; searches go straight to Engine() and never block on the log.
type Durable struct {
	dir  string
	opts Options

	// mu serializes mutations, checkpointing, and compaction
	// bookkeeping. Searches do not take it.
	mu         sync.Mutex
	eng        *core.Engine
	wal        *wal
	seq        uint64       // last sequence number appended
	gens       []generation // on-disk generations in force, newest first
	compacting int          // partition being rebuilt, -1 when idle
	sidelog    []sideRec
	closed     bool

	stats Stats

	stopCompact chan struct{}
	compactDone chan struct{}
}

// sideRec is an insert that raced a compaction of its home partition;
// it is re-applied to the rebuilt graph before the swap.
type sideRec struct {
	v     []float32
	id    int64
	level int
}

// Create initialises dir as a durable store over a freshly built
// engine: writes the initial snapshot, opens an empty WAL, and starts
// the compactor. Fails if dir already holds a store (use Open).
func Create(dir string, e *core.Engine, opts Options) (*Durable, error) {
	opts.fill()
	if e.LocalKind() != "hnsw" {
		return nil, fmt.Errorf("store: engine local index %q does not support insertion (need hnsw)", e.LocalKind())
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := readManifest(opts.FS, dir); err == nil {
		return nil, fmt.Errorf("store: %s already holds a store (use Open)", dir)
	} else if err != ErrNoStore {
		return nil, err
	}
	if opts.Lexical != nil {
		if err := e.SetLexicalConfig(*opts.Lexical); err != nil {
			return nil, err
		}
	}
	d := &Durable{dir: dir, opts: opts, eng: e, compacting: -1}
	if err := d.checkpointLocked(); err != nil {
		return nil, err
	}
	w, err := openWAL(filepath.Join(dir, "wal"), 1, opts, &d.stats, opts.Logf)
	if err != nil {
		return nil, err
	}
	d.wal = w
	d.startCompactor()
	return d, nil
}

// Open recovers a store: loads the manifest's newest usable snapshot
// generation (quarantining corrupt ones and falling back to the
// previous), repairs a torn WAL tail, replays records past the loaded
// generation's watermark, and resumes. The recovered engine answers
// searches exactly as the pre-crash one did for every synced mutation;
// unrecoverable corruption is a typed error, never a silent divergence.
func Open(dir string, opts Options) (*Durable, error) {
	opts.fill()
	fs := opts.FS
	swept, err := sweepTemps(fs, dir, opts.Logf)
	if err != nil {
		return nil, err
	}
	m, err := readManifest(fs, dir)
	if err != nil {
		return nil, err
	}

	// Walk the generations newest-first; quarantine what fails
	// verification and fall back.
	var (
		e       *core.Engine
		gen     generation
		genErrs []error
	)
	for _, g := range m.Generations {
		le, lerr := loadGeneration(fs, dir, g, opts.Lexical)
		if lerr == nil {
			e, gen = le, g
			break
		}
		genErrs = append(genErrs, lerr)
		opts.Logf("store: snapshot generation %s unusable (%v); quarantining and falling back", g.Snapshot, lerr)
		for _, name := range g.files() {
			b := filepath.Join(dir, name)
			if qerr := fs.Rename(b, b+corruptSuffix); qerr != nil && !os.IsNotExist(qerr) {
				opts.Logf("store: quarantine of %s failed: %v", name, qerr)
			}
		}
	}
	if e == nil {
		return nil, fmt.Errorf("store: no usable snapshot generation in %s (all %d quarantined): %w",
			dir, len(genErrs), errors.Join(genErrs...))
	}

	d := &Durable{dir: dir, opts: opts, eng: e, compacting: -1, seq: gen.Watermark, gens: []generation{gen}}
	d.stats.TmpSwept.Store(int64(swept))
	d.stats.Quarantined.Store(int64(len(genErrs)))
	if len(genErrs) > 0 {
		d.stats.Fallbacks.Store(1)
	}

	// Opening the WAL first repairs any torn tail, so replay below sees
	// only whole records.
	w, err := openWAL(filepath.Join(dir, "wal"), gen.Watermark+1, opts, &d.stats, opts.Logf)
	if err != nil {
		return nil, err
	}
	d.wal = w
	replayed := 0
	err = scanWAL(fs, dir, func(r Record) error {
		if r.Seq <= gen.Watermark {
			return nil
		}
		if r.Seq != d.seq+1 {
			return fmt.Errorf("store: WAL sequence gap: have %d, next record is %d", d.seq, r.Seq)
		}
		// decodePayload delivers upserts and deletes only.
		if !r.Type.IsUpsert() {
			e.Delete(r.ID)
		} else if err := d.apply(r); err != nil {
			return fmt.Errorf("store: replaying seq %d: %w", r.Seq, err)
		}
		d.seq = r.Seq
		replayed++
		return nil
	})
	if err != nil {
		w.close()
		return nil, err
	}
	d.stats.Replayed.Store(int64(replayed))
	opts.Logf("store: recovered %s: snapshot %s (watermark %d) + %d replayed WAL records",
		dir, gen.Snapshot, gen.Watermark, replayed)
	d.startCompactor()
	return d, nil
}

// OpenOrCreate opens dir if it holds a store, otherwise builds an
// engine with build and Creates one.
func OpenOrCreate(dir string, build func() (*core.Engine, error), opts Options) (*Durable, error) {
	d, err := Open(dir, opts)
	if err == nil {
		return d, nil
	}
	if !errors.Is(err, ErrNoStore) {
		return nil, err
	}
	e, err := build()
	if err != nil {
		return nil, err
	}
	return Create(dir, e, opts)
}

// Engine returns the wrapped engine for searching. Do not mutate it
// directly — Add/Delete calls that bypass the store are lost on
// restart.
func (d *Durable) Engine() *core.Engine { return d.eng }

// Dir returns the store directory.
func (d *Durable) Dir() string { return d.dir }

// Failed returns the error that poisoned the write path, or nil while
// it is healthy. Once non-nil it stays non-nil: recovery from a storage
// failure requires a restart, which re-reads the log and trusts only
// what is on disk. Searches are unaffected. The serving gateway's
// circuit breaker keys off this.
func (d *Durable) Failed() error { return d.wal.failure() }

// Attrs are the optional attributes an upsert carries beside its
// vector. The zero value is a plain upsert, which leaves whatever tags
// and document the ID already has untouched.
type Attrs struct {
	// Tags, when non-nil, replace the ID's metadata tags; an empty map
	// clears them (matching Engine.SetTags).
	Tags map[string]string
	// Text, when non-nil, is tokenized into the lexical index as the
	// ID's document, replacing any earlier one.
	Text *string
}

// record is the upsert a describes, of the kind that carries exactly
// its attributes; sequence, partition and level are the log's to fill.
func (a Attrs) record(v []float32, id int64) Record {
	r := Record{Type: upsertKind(a.Tags != nil, a.Text != nil), ID: id, Vec: v, Tags: a.Tags}
	if a.Text != nil {
		r.Text = *a.Text
	}
	return r
}

// Upsert is UpsertWith without attributes.
func (d *Durable) Upsert(v []float32, id int64) error { return d.UpsertWith(v, id, Attrs{}) }

// UpsertWith durably inserts a vector together with its attributes in
// one WAL record, logged (with the routed partition and the drawn HNSW
// level) before it is applied: replay restores the vector, its tags and
// its text together or not at all, so neither the tag store nor the
// BM25 index can reference a vector the graph lost. Attributes the log
// could not read back are refused with ErrInvalidUpsert before anything
// is written; after a storage failure every call returns ErrWALFailed.
func (d *Durable) UpsertWith(v []float32, id int64, a Attrs) error {
	rec := a.record(v, id)
	if err := rec.validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	var err error
	if rec.Part, err = d.eng.Home(v); err != nil {
		return err
	}
	if rec.Level, err = d.eng.DrawLevel(rec.Part); err != nil {
		return err
	}
	rec.Seq = d.seq + 1
	if err := d.wal.append(rec); err != nil {
		return err
	}
	d.seq++
	if err := d.apply(rec); err != nil {
		return err
	}
	d.stats.Upserts.Add(1)
	return nil
}

// apply is what an upsert record does to the engine, live and on
// replay: insert at the logged partition and level, then set the
// attributes its kind carries. Caller holds mu (or is Open).
func (d *Durable) apply(r Record) error {
	if err := d.eng.AddAt(r.Part, r.Vec, r.ID, r.Level); err != nil {
		return err
	}
	if r.Type.HasTags() {
		d.eng.SetTags(r.ID, r.Tags)
	}
	if r.Type.HasText() {
		d.eng.SetText(r.ID, r.Text, r.Vec)
	}
	if d.compacting == r.Part {
		d.sidelog = append(d.sidelog, sideRec{v: append([]float32(nil), r.Vec...), id: r.ID, level: r.Level})
	}
	return nil
}

// Delete durably deletes an ID (idempotent, like Engine.Delete).
func (d *Durable) Delete(id int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	if err := d.wal.append(Record{Seq: d.seq + 1, Type: RecordDelete, ID: id}); err != nil {
		return err
	}
	d.seq++
	d.eng.Delete(id)
	d.stats.Deletes.Add(1)
	return nil
}

// Sync forces every appended record to stable storage.
func (d *Durable) Sync() error { return d.wal.sync() }

// Checkpoint writes a fresh snapshot at the current watermark and
// truncates WAL segments it covers. Mutations block for the duration
// (searches do not). Checkpointing works even after the WAL has failed:
// it is the escape hatch that preserves the in-memory state when the
// log's disk dies.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	return d.checkpointLocked()
}

// files lists the checkpoint files g references.
func (g generation) files() []string {
	names := []string{g.Snapshot}
	if g.Tags != "" {
		names = append(names, g.Tags)
	}
	if g.Text != "" {
		names = append(names, g.Text)
	}
	return names
}

// writeSidecar publishes v as the JSON sidecar name.
func (d *Durable) writeSidecar(name string, v any) (crc uint32, size int64, err error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, 0, err
	}
	return fsx.WriteFileAtomic(d.opts.FS, filepath.Join(d.dir, name), b)
}

// checkpointLocked writes snap-<seq>.ann and the sidecars of the same
// watermark (each through fsx.WriteAtomic), repoints the manifest at
// them (keeping the previous generation as the corruption fallback),
// and deletes checkpoint files and WAL segments no retained generation
// needs.
func (d *Durable) checkpointLocked() error {
	fs := d.opts.FS
	g := generation{Snapshot: snapshotName(d.seq), Watermark: d.seq}
	var err error
	g.CRC, g.Bytes, err = fsx.WriteAtomic(fs, filepath.Join(d.dir, g.Snapshot), d.eng.Save)
	if err != nil {
		return err
	}
	// Tags sidecar: the tag store as of the same watermark, referenced
	// (with CRC) from the generation. Skipped when no vector carries tags.
	if snap := d.eng.TagsSnapshot(); len(snap) > 0 {
		g.Tags = tagsName(d.seq)
		if g.TagsCRC, g.TagsBytes, err = d.writeSidecar(g.Tags, tagsFile{Tags: snap}); err != nil {
			return err
		}
	}
	// Lexical-document sidecar: raw text + vector copy per document. The
	// inverted index itself is not serialized — loading re-tokenizes,
	// which the deterministic tokenizer guarantees rebuilds it exactly.
	if snap := d.eng.TextsSnapshot(); len(snap) > 0 {
		g.Text = textsName(d.seq)
		if g.TextCRC, g.TextBytes, err = d.writeSidecar(g.Text, textsFile{Docs: snap}); err != nil {
			return err
		}
	}
	g.Dead = d.eng.DeadRows()
	g.Inserted = d.eng.Inserted()
	gens := append([]generation{g}, d.gens...)
	if len(gens) > maxGenerations {
		gens = gens[:maxGenerations]
	}
	// Degenerate double-checkpoint at the same watermark: the new image
	// replaced the old file of the same name, so retaining both entries
	// would point twice at one file.
	if len(gens) == 2 && gens[1].Snapshot == g.Snapshot {
		gens = gens[:1]
	}
	if err := writeManifest(fs, d.dir, manifest{Generations: gens}); err != nil {
		return err
	}
	d.gens = gens
	// The manifest now points at the new snapshot; checkpoint files
	// outside the retained generations and WAL segments below the oldest
	// retained watermark are garbage. (Quarantined *.corrupt files are
	// kept for the operator.)
	keep := make(map[string]bool, 3*len(gens))
	for _, g := range gens {
		for _, name := range g.files() {
			keep[name] = true
		}
	}
	for _, pattern := range []string{"snap-*.ann", "tags-*.json", "text-*.json"} {
		old, _ := fsx.Glob(fs, filepath.Join(d.dir, pattern))
		for _, p := range old {
			if !keep[filepath.Base(p)] {
				fs.Remove(p)
			}
		}
	}
	if d.wal != nil {
		if err := d.wal.truncateThrough(gens[len(gens)-1].Watermark); err != nil {
			return err
		}
	}
	d.stats.Snapshots.Add(1)
	d.opts.Logf("store: checkpoint %s (watermark %d, crc32c %08x, %d retained generations)", g.Snapshot, g.Watermark, g.CRC, len(gens))
	return nil
}

// Close stops the compactor, syncs the WAL, and releases files. It does
// not checkpoint; the next Open replays the WAL tail.
func (d *Durable) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.stopCompactor()
	return d.wal.close()
}
