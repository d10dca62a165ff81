package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fsx"
)

// Write-ahead log. Mutations are framed as CRC-guarded, length-prefixed
// records and appended to segment files under <dir>/wal/. A segment is
// named wal-<firstSeq>.log after the first sequence number it may
// contain, which makes truncation a pure file-name computation: once a
// snapshot holds everything through watermark W, every segment whose
// successor starts at or before W+1 is garbage.
//
// Group commit: appends go to a buffered writer and are fsynced either
// every SyncEvery records or by a background ticker every SyncInterval,
// whichever comes first — the Kafka/Redis-AOF batching policy. With
// SyncEvery=1 every record is durable before Append returns; larger
// values trade a bounded tail of recent mutations for fsync amortization
// under heavy ingest.
//
// Torn tails: a crash mid-append leaves a partial or CRC-broken final
// record. Opening the WAL scans the last segment, truncates it at the
// last whole record, and resumes appending there; corruption anywhere
// except the tail of the final segment is reported as *CorruptError and
// refuses to open (that is real data loss, not a torn tail).
//
// Failed fsyncs POISON the log permanently. After a failed fsync the
// page cache's relationship to the disk is unknown — dirty pages may
// have been dropped — so retrying the fsync and reporting success would
// acknowledge records that never reached stable storage (the
// "fsyncgate" class of data loss). Every write after the first failure
// returns ErrWALFailed; the only way back is a process restart, which
// re-reads the log from disk and trusts only what is actually there.
//
// All I/O goes through an fsx.FS so the crash-point harness can fail
// any single operation and kill the process there (see fsx.Faulty).

const (
	walMagic   = "ANNW"
	walVersion = 1
	// walHeaderLen is magic + version.
	walHeaderLen = 4 + 4
	// maxRecordBytes bounds a record frame so a corrupt length field
	// fails fast instead of driving a giant allocation. A record is
	// ~29 bytes + 4 per dimension; 64 MiB allows ~16M dimensions.
	maxRecordBytes = 64 << 20
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrWALFailed reports a write against a poisoned WAL: an earlier write
// or fsync failed, so the log refuses all further appends rather than
// risk acknowledging records whose durability is unknown. Check with
// errors.Is; the wrapped cause describes the original failure.
var ErrWALFailed = errors.New("store: WAL failed")

// RecordType discriminates WAL records.
type RecordType uint8

// The record kinds. An upsert logs (partition, level, id, vector) and,
// after the vector, the optional blocks its kind carries. The blocks
// got their own type bytes — rather than fields appended to kind 1 — so
// every kind keeps an exact-length check, logs written by older builds
// replay unchanged, and a plain upsert pays zero overhead. Kinds 1, 3
// and 4 predate kind 5; their frames are pinned byte-for-byte by
// TestGoldenFrames.
const (
	RecordUpsert           RecordType = 1 // vector only
	RecordDelete           RecordType = 2 // one tombstone: (id)
	RecordUpsertTagged     RecordType = 3 // vector + tag block
	RecordUpsertText       RecordType = 4 // vector + text block
	RecordUpsertTaggedText RecordType = 5 // vector + tag block + text block
)

// kind is one row of the kind table: the name tooling prints and, for
// upserts, which optional blocks follow the vector.
type kind struct {
	name               string
	upsert, tags, text bool
}

// kinds is the kind table. The codec, the apply body and annwal all
// read it, so a new kind is one row here.
var kinds = [...]kind{
	RecordUpsert:           {"upsert", true, false, false},
	RecordDelete:           {"delete", false, false, false},
	RecordUpsertTagged:     {"upsert-tagged", true, true, false},
	RecordUpsertText:       {"upsert-text", true, false, true},
	RecordUpsertTaggedText: {"upsert-tagged-text", true, true, true},
}

// kind looks t up; an unknown type is the zero row.
func (t RecordType) kind() kind {
	if int(t) < len(kinds) {
		return kinds[t]
	}
	return kind{}
}

func (t RecordType) String() string {
	if name := t.kind().name; name != "" {
		return name
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// IsUpsert reports whether t inserts a vector.
func (t RecordType) IsUpsert() bool { return t.kind().upsert }

// HasTags reports whether records of kind t carry a tag block: replay
// replaces the ID's tags with it (zero pairs clears them).
func (t RecordType) HasTags() bool { return t.kind().tags }

// HasText reports whether records of kind t carry a text block: replay
// re-tokenizes it, so the BM25 index needs no serialization of its own.
func (t RecordType) HasText() bool { return t.kind().text }

// upsertKind picks the upsert kind carrying exactly the given blocks.
func upsertKind(tags, text bool) RecordType {
	for t, k := range kinds {
		if k.upsert && k.tags == tags && k.text == text {
			return RecordType(t)
		}
	}
	panic("store: kind table lacks an upsert kind")
}

// Tag-block limits: a tag key or value is length-prefixed with u16, and
// one record carries at most maxTagsPerRecord pairs. Bounded so a
// corrupt count fails fast.
const (
	maxTagsPerRecord = 1 << 12
	maxTagBytes      = 1<<16 - 1
)

// MaxTextBytes bounds the document text one upsert may carry (1 MiB —
// far beyond short-document BM25's useful range), so a corrupt length
// field fails fast and the gateway can reject oversized bodies with a
// typed error instead of logging them.
const MaxTextBytes = 1 << 20

// ErrInvalidUpsert reports an upsert the log could not read back: an
// empty or oversized tag key, an oversized tag value, too many tags, or
// oversized text. Nothing was logged or applied. Check with errors.Is;
// the gateway maps it to 400.
var ErrInvalidUpsert = errors.New("store: invalid upsert")

// Record is one logged mutation. Upserts carry the home partition and
// the HNSW level the insert was assigned, so replay rebuilds a
// structurally identical graph without consulting the level generator.
type Record struct {
	Seq   uint64
	Type  RecordType
	Part  int // upsert: home partition
	Level int // upsert: HNSW level
	ID    int64
	Vec   []float32         // upsert only
	Tags  map[string]string // kinds with a tag block
	Text  string            // kinds with a text block
}

// validate holds the writer to what decodePayload accepts, so a record
// that was acknowledged can always be replayed.
func (r Record) validate() error {
	if r.Type.HasTags() {
		if len(r.Tags) > maxTagsPerRecord {
			return fmt.Errorf("%w: %d tags exceeds limit %d", ErrInvalidUpsert, len(r.Tags), maxTagsPerRecord)
		}
		for k, v := range r.Tags {
			if k == "" {
				return fmt.Errorf("%w: empty tag key", ErrInvalidUpsert)
			}
			if len(k) > maxTagBytes || len(v) > maxTagBytes {
				return fmt.Errorf("%w: tag %.32q is %d+%d bytes, limit %d each", ErrInvalidUpsert, k, len(k), len(v), maxTagBytes)
			}
		}
	}
	if r.Type.HasText() && len(r.Text) > MaxTextBytes {
		return fmt.Errorf("%w: document text %d bytes exceeds limit %d", ErrInvalidUpsert, len(r.Text), MaxTextBytes)
	}
	if n := r.payloadLen(); n > maxRecordBytes {
		return fmt.Errorf("%w: record of %d bytes exceeds limit %d", ErrInvalidUpsert, n, maxRecordBytes)
	}
	return nil
}

// CorruptError reports a WAL frame, snapshot, or manifest that failed
// its length or checksum validation. WantCRC/GotCRC carry the stored
// and computed CRC32-C when the failure is a checksum mismatch.
type CorruptError struct {
	Path    string
	Offset  int64
	Reason  string
	WantCRC uint32 // checksum stored in the frame/manifest
	GotCRC  uint32 // checksum computed over the bytes read
}

func (e *CorruptError) Error() string {
	if e.WantCRC != e.GotCRC {
		return fmt.Sprintf("store: corrupt record in %s at offset %d: %s (want crc32c %08x, got %08x)",
			e.Path, e.Offset, e.Reason, e.WantCRC, e.GotCRC)
	}
	return fmt.Sprintf("store: corrupt record in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Payload layout: type u8, seq u64, id i64; then for upserts part u32,
// level u32, dim u32, dim float32s; then, if the kind carries one, the
// tag block (u16 pair count, per pair u16 key length, key bytes, u16
// value length, value bytes; keys strictly increasing); then, if the
// kind carries one, the text block (u32 length, bytes). Nothing may
// follow: every kind's length is exact.
const (
	recHeaderLen    = 1 + 8 + 8
	upsertHeaderLen = recHeaderLen + 4 + 4 + 4
)

// payloadLen is the encoded payload size of r.
func (r Record) payloadLen() int {
	if !r.Type.IsUpsert() {
		return recHeaderLen
	}
	n := upsertHeaderLen + 4*len(r.Vec)
	if r.Type.HasTags() {
		n += 2
		for k, v := range r.Tags {
			n += 2 + len(k) + 2 + len(v)
		}
	}
	if r.Type.HasText() {
		n += 4 + len(r.Text)
	}
	return n
}

// encodeRecord frames r: u32 payload length, u32 CRC32-C of payload,
// payload.
func encodeRecord(r Record) []byte {
	le := binary.LittleEndian
	n := r.payloadLen()
	buf := make([]byte, 8, 8+n)
	buf = append(buf, byte(r.Type))
	buf = le.AppendUint64(buf, r.Seq)
	buf = le.AppendUint64(buf, uint64(r.ID))
	if r.Type.IsUpsert() {
		buf = le.AppendUint32(buf, uint32(r.Part))
		buf = le.AppendUint32(buf, uint32(r.Level))
		buf = le.AppendUint32(buf, uint32(len(r.Vec)))
		for _, x := range r.Vec {
			buf = le.AppendUint32(buf, math.Float32bits(x))
		}
	}
	if r.Type.HasTags() {
		keys := make([]string, 0, len(r.Tags))
		for k := range r.Tags {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic bytes: same record always encodes identically
		buf = le.AppendUint16(buf, uint16(len(keys)))
		for _, k := range keys {
			buf = le.AppendUint16(buf, uint16(len(k)))
			buf = append(buf, k...)
			buf = le.AppendUint16(buf, uint16(len(r.Tags[k])))
			buf = append(buf, r.Tags[k]...)
		}
	}
	if r.Type.HasText() {
		buf = le.AppendUint32(buf, uint32(len(r.Text)))
		buf = append(buf, r.Text...)
	}
	le.PutUint32(buf[0:], uint32(n))
	le.PutUint32(buf[4:], crc32.Checksum(buf[8:], crcTable))
	return buf
}

// decodePayload parses a CRC-verified payload.
func decodePayload(p []byte) (Record, error) {
	le := binary.LittleEndian
	if len(p) < recHeaderLen {
		return Record{}, fmt.Errorf("payload too short (%d bytes)", len(p))
	}
	r := Record{Type: RecordType(p[0]), Seq: le.Uint64(p[1:]), ID: int64(le.Uint64(p[9:]))}
	if !r.Type.IsUpsert() && r.Type != RecordDelete {
		return Record{}, fmt.Errorf("unknown record type %d", p[0])
	}
	off := recHeaderLen
	if r.Type.IsUpsert() {
		if len(p) < upsertHeaderLen {
			return Record{}, fmt.Errorf("upsert payload too short (%d bytes)", len(p))
		}
		r.Part = int(le.Uint32(p[17:]))
		r.Level = int(le.Uint32(p[21:]))
		dim := int(le.Uint32(p[25:]))
		off = upsertHeaderLen + 4*dim
		if dim > (maxRecordBytes-upsertHeaderLen)/4 || len(p) < off {
			return Record{}, fmt.Errorf("%s payload %d bytes, too short for dim %d", r.Type, len(p), dim)
		}
		r.Vec = make([]float32, dim)
		for i := range r.Vec {
			r.Vec[i] = math.Float32frombits(le.Uint32(p[upsertHeaderLen+4*i:]))
		}
	}
	if r.Type.HasTags() {
		tags, n, err := decodeTagBlock(p[off:])
		if err != nil {
			return Record{}, err
		}
		r.Tags, off = tags, off+n
	}
	if r.Type.HasText() {
		if len(p) < off+4 {
			return Record{}, fmt.Errorf("%s payload %d bytes, too short for its text length", r.Type, len(p))
		}
		tl := int(le.Uint32(p[off:]))
		off += 4
		if tl > MaxTextBytes || len(p) < off+tl {
			return Record{}, fmt.Errorf("%s payload %d bytes, too short for text length %d", r.Type, len(p), tl)
		}
		r.Text, off = string(p[off:off+tl]), off+tl
	}
	if off != len(p) {
		return Record{}, fmt.Errorf("%s payload has %d trailing bytes", r.Type, len(p)-off)
	}
	return r, nil
}

// decodeTagBlock parses the tag block at the head of b and returns how
// many bytes it spans. Keys must be strictly increasing — the canonical
// order encodeRecord writes — so every accepted record re-encodes to
// its exact frame bytes (the round-trip invariant the WAL fuzzer checks)
// and duplicates are impossible.
func decodeTagBlock(b []byte) (map[string]string, int, error) {
	if len(b) < 2 {
		return nil, 0, fmt.Errorf("payload too short for its tag count")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if n > maxTagsPerRecord {
		return nil, 0, fmt.Errorf("implausible tag count %d", n)
	}
	off := 2
	prev := ""
	tags := make(map[string]string, n)
	for i := 0; i < n; i++ {
		var kv [2]string
		for j := 0; j < 2; j++ {
			if off+2 > len(b) {
				return nil, 0, fmt.Errorf("tag block truncated at pair %d", i)
			}
			l := int(binary.LittleEndian.Uint16(b[off:]))
			off += 2
			if off+l > len(b) {
				return nil, 0, fmt.Errorf("tag block truncated at pair %d", i)
			}
			kv[j] = string(b[off : off+l])
			off += l
		}
		if kv[0] == "" {
			return nil, 0, fmt.Errorf("empty tag key at pair %d", i)
		}
		if i > 0 && kv[0] <= prev {
			return nil, 0, fmt.Errorf("tag keys out of canonical order at pair %d", i)
		}
		prev = kv[0]
		tags[kv[0]] = kv[1]
	}
	return tags, off, nil
}

// walSegment is one on-disk log file.
type walSegment struct {
	path     string
	firstSeq uint64 // first sequence number the segment may contain
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%020d.log", firstSeq)
}

func parseSegmentName(name string) (uint64, bool) {
	var seq uint64
	if n, err := fmt.Sscanf(name, "wal-%020d.log", &seq); n != 1 || err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the segments under walDir sorted by firstSeq.
func listSegments(fs fsx.FS, walDir string) ([]walSegment, error) {
	ents, err := fs.ReadDir(walDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []walSegment
	for _, e := range ents {
		if seq, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, walSegment{path: filepath.Join(walDir, e.Name()), firstSeq: seq})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// scanRecords streams the CRC-clean records of one segment stream. It
// returns the byte offset just past the last whole, valid record. A
// partial or corrupt frame stops the scan with a *CorruptError at that
// offset; a clean end-of-stream returns nil. path labels errors only.
func scanRecords(br *bufio.Reader, path string, fn func(Record) error) (int64, error) {
	hdr := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, &CorruptError{Path: path, Offset: 0, Reason: "short segment header"}
	}
	if string(hdr[:4]) != walMagic {
		return 0, &CorruptError{Path: path, Offset: 0, Reason: fmt.Sprintf("bad magic %q", hdr[:4])}
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != walVersion {
		return 0, &CorruptError{Path: path, Offset: 0, Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	off := int64(walHeaderLen)
	frame := make([]byte, 8)
	for {
		if _, err := io.ReadFull(br, frame); err != nil {
			if err == io.EOF {
				return off, nil // clean end
			}
			return off, &CorruptError{Path: path, Offset: off, Reason: "torn frame header"}
		}
		n := binary.LittleEndian.Uint32(frame[0:])
		crc := binary.LittleEndian.Uint32(frame[4:])
		if n == 0 || n > maxRecordBytes {
			return off, &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf("implausible record length %d", n)}
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, &CorruptError{Path: path, Offset: off, Reason: "torn payload"}
		}
		if got := crc32.Checksum(payload, crcTable); got != crc {
			return off, &CorruptError{Path: path, Offset: off, Reason: "CRC mismatch", WantCRC: crc, GotCRC: got}
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return off, &CorruptError{Path: path, Offset: off, Reason: err.Error()}
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return off, err
			}
		}
		off += 8 + int64(n)
	}
}

// scanSegment streams the records of one segment file (see scanRecords).
func scanSegment(fs fsx.FS, path string, fn func(Record) error) (int64, error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return scanRecords(bufio.NewReaderSize(f, 1<<20), path, fn)
}

// ScanWAL streams every record of every segment under dir (a store
// directory) in sequence order. Corruption — including a torn tail —
// stops the scan with a *CorruptError; annwal uses this for -verify and
// -dump, the store itself repairs tails before replaying.
func ScanWAL(dir string, fn func(Record) error) error {
	return scanWAL(fsx.OS{}, dir, fn)
}

func scanWAL(fs fsx.FS, dir string, fn func(Record) error) error {
	segs, err := listSegments(fs, filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	for _, s := range segs {
		if _, err := scanSegment(fs, s.path, fn); err != nil {
			return err
		}
	}
	return nil
}

// wal is the append side of the log.
type wal struct {
	fs           fsx.FS
	dir          string // <store>/wal
	syncEvery    int
	syncInterval time.Duration
	segmentBytes int64
	stats        *Stats

	mu       sync.Mutex
	f        fsx.File
	bw       *bufio.Writer
	size     int64
	segs     []walSegment // sorted; last is the active segment
	unsynced int
	dirty    bool
	broken   error // a failed write or fsync poisons the log
	closed   bool

	stopTick chan struct{}
	tickDone chan struct{}
}

// openWAL opens (creating if needed) the log under dir, repairing a
// torn tail in the final segment by truncating it to the last whole
// record. nextSeq names the first segment when none exist.
func openWAL(dir string, nextSeq uint64, opts Options, stats *Stats, logf func(string, ...any)) (*wal, error) {
	fs := opts.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(fs, dir)
	if err != nil {
		return nil, err
	}
	w := &wal{
		fs:           fs,
		dir:          dir,
		syncEvery:    opts.SyncEvery,
		syncInterval: opts.SyncInterval,
		segmentBytes: opts.SegmentBytes,
		stats:        stats,
		segs:         segs,
	}
	if len(segs) == 0 {
		if err := w.createSegment(nextSeq); err != nil {
			return nil, err
		}
	} else {
		// Repair: truncate the last segment past its last whole record —
		// but only if the corruption really is a torn tail. A crash tears
		// appends, so garbage can only be a suffix; a valid record AFTER
		// the corrupt frame means bitrot in acked data, and truncating
		// there would silently drop every record that follows. That must
		// fail loudly instead.
		last := segs[len(segs)-1]
		end, err := scanSegment(fs, last.path, nil)
		if cerr, ok := err.(*CorruptError); ok {
			torn, terr := tornTail(fs, last.path, end)
			if terr != nil {
				return nil, terr
			}
			if !torn {
				return nil, fmt.Errorf("wal: %s has valid records after the corrupt frame at offset %d — mid-log corruption, refusing to repair by truncation (run annwal -verify): %w",
					filepath.Base(last.path), end, cerr)
			}
			logf("wal: truncating torn tail of %s at offset %d (%s)", filepath.Base(last.path), end, cerr.Reason)
			if terr := fs.Truncate(last.path, end); terr != nil {
				return nil, terr
			}
		} else if err != nil {
			return nil, err
		}
		f, err := fs.OpenFile(last.path, os.O_WRONLY, 0)
		if err != nil {
			return nil, err
		}
		if _, err := f.Seek(end, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		w.f = f
		w.size = end
		w.bw = bufio.NewWriterSize(f, 1<<20)
	}
	if w.syncInterval > 0 {
		w.stopTick = make(chan struct{})
		w.tickDone = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// tornTail reports whether the corruption at offset off in segment path
// is consistent with a torn append: no whole, CRC-valid record anywhere
// in the bytes past the corrupt frame. Sequential appends mean a crash
// leaves garbage only as a suffix, so finding a valid record later in
// the file proves mid-log bitrot instead.
func tornTail(fs fsx.FS, path string, off int64) (bool, error) {
	f, err := fs.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return false, err
	}
	tail, err := io.ReadAll(f)
	if err != nil {
		return false, err
	}
	// Slide a candidate frame start past the corrupt one (a valid record
	// cannot begin exactly where the scan already failed).
	for i := 1; i+8 <= len(tail); i++ {
		n := binary.LittleEndian.Uint32(tail[i:])
		if n == 0 || n > maxRecordBytes || i+8+int(n) > len(tail) {
			continue
		}
		payload := tail[i+8 : i+8+int(n)]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(tail[i+4:]) {
			continue
		}
		if _, err := decodePayload(payload); err == nil {
			return false, nil
		}
	}
	return true, nil
}

// createSegment starts a fresh active segment (caller holds mu or is
// the constructor).
func (w *wal) createSegment(firstSeq uint64) error {
	path := filepath.Join(w.dir, segmentName(firstSeq))
	f, err := w.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, walHeaderLen)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<20)
	w.size = walHeaderLen
	w.segs = append(w.segs, walSegment{path: path, firstSeq: firstSeq})
	return nil
}

// poisonLocked records the first failure and permanently disables the
// log (caller holds mu). Returns the typed error writes will see.
func (w *wal) poisonLocked(err error) error {
	if w.broken == nil {
		w.broken = err
		if w.stats != nil {
			w.stats.WALFailures.Add(1)
		}
	}
	return fmt.Errorf("%w: %w", ErrWALFailed, w.broken)
}

// failure returns the poisoning error, or nil while the log is healthy.
func (w *wal) failure() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// append logs one record under the group-commit policy. On return the
// record is in the OS page cache at minimum; it is on stable storage if
// the sync policy fired (SyncEvery<=1 forces that every time).
func (w *wal) append(r Record) error {
	buf := encodeRecord(r)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return fmt.Errorf("%w: %w", ErrWALFailed, w.broken)
	}
	if w.closed {
		return errClosed
	}
	if w.size > walHeaderLen && w.size+int64(len(buf)) > w.segmentBytes {
		if err := w.rotateLocked(r.Seq); err != nil {
			return w.poisonLocked(err)
		}
	}
	if _, err := w.bw.Write(buf); err != nil {
		return w.poisonLocked(err)
	}
	w.size += int64(len(buf))
	w.dirty = true
	w.unsynced++
	if w.stats != nil {
		w.stats.WALAppends.Add(1)
		w.stats.WALBytes.Add(int64(len(buf)))
	}
	if w.syncEvery <= 1 || w.unsynced >= w.syncEvery {
		if err := w.syncLocked(); err != nil {
			return err // syncLocked already poisoned
		}
	}
	return nil
}

// rotateLocked seals the active segment and opens a new one whose name
// is the sequence number of the record about to be written.
func (w *wal) rotateLocked(nextSeq uint64) error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if w.stats != nil {
		w.stats.WALRotations.Add(1)
	}
	return w.createSegment(nextSeq)
}

// syncLocked flushes and fsyncs the active segment. Failure poisons the
// log: after a failed fsync the page cache may silently have dropped
// the dirty data, so a "successful" retry would be a lie (fsyncgate).
func (w *wal) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return w.poisonLocked(err)
	}
	t0 := time.Now()
	if err := w.f.Sync(); err != nil {
		return w.poisonLocked(err)
	}
	if w.stats != nil {
		w.stats.WALFsyncs.Add(1)
		w.stats.fsyncUS.Push(float64(time.Since(t0).Microseconds()))
	}
	w.dirty = false
	w.unsynced = 0
	return nil
}

// sync forces buffered records to stable storage.
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	if w.broken != nil {
		return fmt.Errorf("%w: %w", ErrWALFailed, w.broken)
	}
	return w.syncLocked()
}

// flushLoop is the straggler fsync: without it, a trickle of writes
// below SyncEvery would sit in the buffer indefinitely.
func (w *wal) flushLoop() {
	defer close(w.tickDone)
	t := time.NewTicker(w.syncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopTick:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed && w.broken == nil {
				w.syncLocked() // poisons on failure
			}
			w.mu.Unlock()
		}
	}
}

// truncateThrough deletes every sealed segment whose records all have
// seq <= watermark (they are covered by a snapshot). The active segment
// is never removed.
func (w *wal) truncateThrough(watermark uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.segs) >= 2 && w.segs[1].firstSeq <= watermark+1 {
		if err := w.fs.Remove(w.segs[0].path); err != nil && !os.IsNotExist(err) {
			return err
		}
		if w.stats != nil {
			w.stats.WALTruncated.Add(1)
		}
		w.segs = w.segs[1:]
	}
	return nil
}

// diskBytes sums the on-disk segment sizes.
func (w *wal) diskBytes() (int64, int) {
	w.mu.Lock()
	segs := append([]walSegment(nil), w.segs...)
	w.mu.Unlock()
	var total int64
	for _, s := range segs {
		if fi, err := w.fs.Stat(s.path); err == nil {
			total += fi.Size()
		}
	}
	return total, len(segs)
}

// close releases the log. A poisoned log is closed without a final
// sync: retrying a failed fsync cannot make the data durable and must
// not look like it did.
func (w *wal) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	var err error
	if w.broken == nil {
		err = w.syncLocked()
	}
	w.closed = true
	cerr := w.f.Close()
	w.mu.Unlock()
	if w.stopTick != nil {
		close(w.stopTick)
		<-w.tickDone
	}
	if err == nil {
		err = cerr
	}
	return err
}
