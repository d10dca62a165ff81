package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/filter"
)

// TestTagsCrashRecoveryWAL kills the process with tags living only in
// the WAL tail: no checkpoint after the tagged upserts. Reopen must
// replay them into the tag store.
func TestTagsCrashRecoveryWAL(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 800, 3)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	const nTagged, nPlain = 50, 20
	for i := 0; i < nTagged; i++ {
		id := int64(200000 + i)
		tags := map[string]string{"tenant": fmt.Sprintf("t%d", i%3), "idx": fmt.Sprintf("%d", i)}
		if err := d.UpsertWith(randVec(rng, 8), id, Attrs{Tags: tags}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nPlain; i++ {
		if err := d.Upsert(randVec(rng, 8), int64(300000+i)); err != nil {
			t.Fatal(err)
		}
	}
	// A tagged upsert with nil tags must clear on replay too.
	if err := d.UpsertWith(randVec(rng, 8), 200000, Attrs{Tags: map[string]string{}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // crash: no checkpoint, WAL only
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	e2 := d2.Engine()
	for i := 1; i < nTagged; i++ {
		id := int64(200000 + i)
		got := e2.Tags(id)
		if got["tenant"] != fmt.Sprintf("t%d", i%3) || got["idx"] != fmt.Sprintf("%d", i) {
			t.Fatalf("id %d tags after WAL replay = %v", id, got)
		}
	}
	if got := e2.Tags(200000); got != nil {
		t.Fatalf("cleared id 200000 still has tags %v after replay", got)
	}
	if got := e2.Tags(300000); got != nil {
		t.Fatalf("untagged id 300000 has tags %v", got)
	}
}

// TestTagsCrashRecoverySnapshot checkpoints (folding tags into the
// sidecar and truncating their WAL records), appends a small tagged
// tail, crashes, and reopens: tags must come back from sidecar + tail.
func TestTagsCrashRecoverySnapshot(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 800, 5)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		if err := d.UpsertWith(randVec(rng, 8), int64(400000+i), Attrs{Tags: map[string]string{"gen": "pre"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The sidecar must exist and be referenced by the manifest.
	gens, err := Manifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sidecars, _ := filepath.Glob(filepath.Join(dir, "tags-*.json"))
	if len(sidecars) == 0 {
		t.Fatal("checkpoint wrote no tags sidecar")
	}
	_ = gens
	// Tail after the checkpoint: new tagged ids plus a rewrite of an old
	// one — replay must override the sidecar's value.
	for i := 0; i < 10; i++ {
		if err := d.UpsertWith(randVec(rng, 8), int64(500000+i), Attrs{Tags: map[string]string{"gen": "post"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.UpsertWith(randVec(rng, 8), 400000, Attrs{Tags: map[string]string{"gen": "rewritten"}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	e2 := d2.Engine()
	for i := 1; i < 40; i++ {
		if got := e2.Tags(int64(400000 + i)); got["gen"] != "pre" {
			t.Fatalf("id %d tags = %v, want gen=pre from sidecar", 400000+i, got)
		}
	}
	for i := 0; i < 10; i++ {
		if got := e2.Tags(int64(500000 + i)); got["gen"] != "post" {
			t.Fatalf("id %d tags = %v, want gen=post from WAL tail", 500000+i, got)
		}
	}
	if got := e2.Tags(400000); got["gen"] != "rewritten" {
		t.Fatalf("id 400000 tags = %v, want replayed rewrite", got)
	}
}

// TestTagsSidecarCorruptionFallsBack flips a byte in the newest
// generation's tags sidecar: Open must quarantine that generation and
// recover from the previous one plus a longer WAL replay.
func TestTagsSidecarCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 800, 9)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 25; i++ {
		if err := d.UpsertWith(randVec(rng, 8), int64(600000+i), Attrs{Tags: map[string]string{"k": "v"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil { // generation 2: snapshot + sidecar
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	sidecars, _ := filepath.Glob(filepath.Join(dir, "tags-*.json"))
	if len(sidecars) != 1 {
		t.Fatalf("expected 1 sidecar, found %v", sidecars)
	}
	b, err := os.ReadFile(sidecars[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(sidecars[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Stats().Quarantined; got != 1 {
		t.Errorf("quarantined %d generations, want 1", got)
	}
	// Fallback generation (Create's initial snapshot) has no tags, so
	// everything must have been rebuilt from the full WAL replay.
	e2 := d2.Engine()
	for i := 0; i < 25; i++ {
		if got := e2.Tags(int64(600000 + i)); got["k"] != "v" {
			t.Fatalf("id %d tags = %v after fallback recovery", 600000+i, got)
		}
	}
	// The corrupt sidecar was quarantined, not deleted.
	q, _ := filepath.Glob(filepath.Join(dir, "tags-*"+corruptSuffix))
	if len(q) != 1 {
		all, _ := os.ReadDir(dir)
		var names []string
		for _, f := range all {
			names = append(names, f.Name())
		}
		t.Fatalf("no quarantined sidecar; dir: %s", strings.Join(names, ", "))
	}
}

// TestUpsertRefusesWhatReplayRejects: the writer accepts only what the
// reader accepts. The parent acknowledged an empty tag key and a 64 KiB+
// tag value, framed them under a valid CRC, and then could not reopen
// the store ("mid-log corruption, refusing to repair"). Each bad upsert
// must be refused with the typed error before anything is logged, and
// the store must reopen clean with the writes around it intact.
func TestUpsertRefusesWhatReplayRejects(t *testing.T) {
	tooMany := make(map[string]string, maxTagsPerRecord+1)
	for i := 0; i <= maxTagsPerRecord; i++ {
		tooMany[fmt.Sprintf("k%d", i)] = "v"
	}
	// 1,200 tags sharing one 60 KB value: each pair is legal, the frame
	// (≈72 MB) is past what the scanner will read back.
	tooBig, val := make(map[string]string, 1200), strings.Repeat("v", 60000)
	for i := 0; i < 1200; i++ {
		tooBig[fmt.Sprintf("k%d", i)] = val
	}
	bad := map[string]Attrs{
		"frame too big":      {Tags: tooBig},
		"empty tag key":      {Tags: map[string]string{"": "x"}},
		"long tag value":     {Tags: map[string]string{"k": strings.Repeat("v", 70000)}},
		"long tag key":       {Tags: map[string]string{strings.Repeat("k", 1<<16): "v"}},
		"too many tags":      {Tags: tooMany},
		"long text":          withText(strings.Repeat("x", MaxTextBytes+1)),
		"bad tag, good text": {Tags: map[string]string{"": "x"}, Text: withText("fine").Text},
	}
	for name, a := range bad {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e, _ := smallEngine(t, 300, 3)
			opts := Options{SyncEvery: 1, CompactRatio: -1}
			d, err := Create(dir, e, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Upsert(fixedVec(1, 8), 1); err != nil {
				t.Fatal(err)
			}
			if err := d.UpsertWith(fixedVec(2, 8), 2, a); !errors.Is(err, ErrInvalidUpsert) {
				t.Fatalf("bad upsert = %v, want ErrInvalidUpsert", err)
			}
			if st := d.Stats(); st.LastSeq != 1 || st.Upserts != 1 {
				t.Fatalf("refused upsert moved the log: LastSeq %d, Upserts %d", st.LastSeq, st.Upserts)
			}
			if d.Engine().Tags(2) != nil || d.Engine().TextCount() != 0 {
				t.Fatal("refused upsert left attributes in the engine")
			}
			if err := d.Upsert(fixedVec(3, 8), 3); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen after a refused upsert: %v", err)
			}
			defer d2.Close()
			if st := d2.Stats(); st.Replayed != 2 || st.LastSeq != 2 {
				t.Fatalf("replayed %d records to seq %d, want 2 to 2", st.Replayed, st.LastSeq)
			}
		})
	}
	// The limits themselves are inclusive: the largest key, value and
	// text the codec can frame are accepted and survive replay.
	dir := t.TempDir()
	e, _ := smallEngine(t, 300, 3)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	edge := Attrs{
		Tags: map[string]string{strings.Repeat("k", maxTagBytes): strings.Repeat("v", maxTagBytes)},
		Text: withText(strings.Repeat("x ", MaxTextBytes/2)).Text,
	}
	if err := d.UpsertWith(fixedVec(1, 8), 1, edge); err != nil {
		t.Fatalf("upsert at the limits: %v", err)
	}
	d.Close()
	d2, err := Open(dir, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatalf("reopen after an upsert at the limits: %v", err)
	}
	defer d2.Close()
	if got, _ := d2.Engine().Text(1); !reflect.DeepEqual(d2.Engine().Tags(1), edge.Tags) || got != *edge.Text {
		t.Fatal("attributes at the limits did not survive replay")
	}
}

// TestTaggedRecordRoundTrip pins the tagged WAL record encoding.
func TestTaggedRecordRoundTrip(t *testing.T) {
	r := Record{Seq: 9, Type: RecordUpsertTagged, Part: 3, Level: 2, ID: -5,
		Vec:  []float32{1.5, -2.25},
		Tags: map[string]string{"z": "last", "a": "first", "empty": ""}}
	buf := encodeRecord(r)
	got, err := decodePayload(buf[8:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != r.Seq || got.Type != r.Type || got.Part != r.Part || got.Level != r.Level || got.ID != r.ID {
		t.Fatalf("header round-trip: %+v", got)
	}
	if len(got.Vec) != 2 || got.Vec[0] != 1.5 || got.Vec[1] != -2.25 {
		t.Fatalf("vec round-trip: %v", got.Vec)
	}
	if len(got.Tags) != 3 || got.Tags["z"] != "last" || got.Tags["a"] != "first" || got.Tags["empty"] != "" {
		t.Fatalf("tags round-trip: %v", got.Tags)
	}
	// Out-of-order keys in a hand-built block are rejected.
	bad := encodeRecord(Record{Seq: 1, Type: RecordUpsertTagged, Vec: nil,
		Tags: map[string]string{"b": "1", "a": "2"}})
	// swap the two pairs' bytes: locate the tag block (offset 29 into payload)
	p := append([]byte(nil), bad[8:]...)
	blk := p[29:]
	// block: count(2) a-pair(2+1+2+1=6) b-pair(6)
	tmp := append([]byte(nil), blk[2:8]...)
	copy(blk[2:8], blk[8:14])
	copy(blk[8:14], tmp)
	if _, err := decodePayload(p); err == nil {
		t.Fatal("out-of-order tag keys decoded without error")
	}
}

// TestTagPostingsRecoverExactly: the postings a reopened store holds —
// restored from the tags sidecar, then extended by the WAL tail — are
// the postings that setting every tag from scratch builds, and a
// filtered search scans them to the same answer. The tagged IDs arrive
// out of order, are rewritten and cleared, so restore and replay both
// leave the append-only path.
func TestTagPostingsRecoverExactly(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 800, 9)
	d, err := Create(dir, e, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := smallEngine(t, 800, 9) // the same sets, with no store under them
	rng := rand.New(rand.NewSource(29))
	set := func(id int64, tags map[string]string) {
		t.Helper()
		if err := d.UpsertWith(randVec(rng, 8), id, Attrs{Tags: tags}); err != nil {
			t.Fatal(err)
		}
		ref.SetTags(id, tags)
	}
	ids := rng.Perm(120)
	for _, i := range ids {
		set(int64(600000+i), map[string]string{"shard": fmt.Sprintf("s%d", i%4), "gen": "pre"})
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, i := range ids[:40] {
		switch i % 3 {
		case 0:
			set(int64(600000+i), map[string]string{"shard": "moved", "gen": "post"})
		case 1:
			set(int64(600000+i), map[string]string{})
		default:
			set(int64(700000+i), map[string]string{"shard": fmt.Sprintf("s%d", i%4)})
		}
	}
	if err := d.Delete(int64(600000 + ids[50])); err != nil {
		t.Fatal(err)
	}
	ref.Delete(int64(600000 + ids[50]))
	if err := d.Close(); err != nil { // crash: sidecar + WAL tail
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{SyncEvery: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	dump := func(e *core.Engine) string {
		var b strings.Builder
		if err := e.TagsDump(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	got, want := dump(d2.Engine()), dump(ref)
	if got != want {
		t.Fatalf("recovered postings differ from a from-scratch build:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(want, `"shard"="moved"`) || strings.Count(want, "\n") < 100 {
		t.Fatalf("the dump does not show the workload:\n%s", want)
	}
	if !reflect.DeepEqual(d2.Engine().TagsSnapshot(), ref.TagsSnapshot()) {
		t.Fatal("recovered tag maps differ from a from-scratch build")
	}
	// The recovered locator resolves the postings: a selective filter is
	// answered by the scan, from vectors the WAL replayed.
	f, err := filter.Parse("shard=moved")
	if err != nil {
		t.Fatal(err)
	}
	rs, st, err := d2.Engine().SearchFilteredStats(randVec(rng, 8), 50, f)
	if err != nil {
		t.Fatal(err)
	}
	moved := strings.Count(want, "\t\"gen\"=\"post\"")
	if ts := d2.Engine().TagStats(); ts.Scans != 1 || len(rs) != moved || st.DistComps != int64(moved) || moved == 0 {
		t.Fatalf("filtered search after recovery: %d results, %+v, %+v; %d IDs moved", len(rs), st, ts, moved)
	}
}
