package store

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/filter"
)

// Golden frames and files captured from the build BEFORE the write path
// was unified (one upsert, one codec, one atomic writer): the ten-record
// workload below run through that build's three upsert methods (plain,
// tagged, text) and Delete on engineBytes(300, 67), with one Checkpoint
// after seq 4. Kinds 1, 3 and 4 must stay byte-for-byte what they were — old
// logs, `store.wal.bytes_per_point` and every stored CRC depend on it —
// and a directory that build left behind must open unmodified.

var goldenRecords = []struct {
	rec   Record
	frame string // hex of the whole frame: length, CRC, payload
}{
	{Record{Seq: 1, Type: RecordUpsert, Part: 3, ID: 900001, Vec: fixedVec(1, 8)},
		"3d000000362b80f6010100000000000000a1bb0d0000000000030000000000000008000000d3d2d23ff1f0f03ea6a5a53ff1f0f03df1f0703fe2e1e13f9796163fb5b4b43f"},
	{Record{Seq: 2, Type: RecordUpsertTagged, Part: 3, ID: 900002, Vec: fixedVec(2, 8), Tags: map[string]string{"lang": "en", "tier": "hot"}},
		"54000000953799c6030200000000000000a2bb0d0000000000030000000000000008000000a6a5a53ff1f0f03df1f0703fe2e1e13f9796163fb5b4b43ff1f0703e8887873f020004006c616e670200656e0400746965720300686f74"},
	{Record{Seq: 3, Type: RecordUpsertText, Part: 3, ID: 900003, Vec: fixedVec(3, 8), Text: "shared alpha unique3"},
		"5500000054813672040300000000000000a3bb0d0000000000030000000000000008000000f1f0703fe2e1e13f9796163fb5b4b43ff1f0703e8887873ff1f0f03fb5b4343f1400000073686172656420616c70686120756e6971756533"},
	{Record{Seq: 4, Type: RecordDelete, ID: 900001},
		"11000000f382984c020400000000000000a1bb0d0000000000"},
	// — checkpoint at watermark 4; the rest is the WAL tail —
	{Record{Seq: 5, Type: RecordUpsert, Part: 3, ID: 900005, Vec: fixedVec(5, 8)},
		"3d0000002c5761eb010500000000000000a5bb0d0000000000030000000000000008000000f1f0703e8887873ff1f0f03fb5b4343fc4c3c33fb5b4b43e9796963f00000000"},
	{Record{Seq: 6, Type: RecordUpsertTagged, Part: 3, ID: 900006, Vec: fixedVec(6, 8), Tags: map[string]string{"lang": "de", "tier": "cold"}},
		"550000004c22da0c030600000000000000a6bb0d0000000000030000000000000008000000f1f0f03fb5b4343fc4c3c33fb5b4b43e9796963f00000000d3d2523fd3d2d23f020004006c616e67020064650400746965720400636f6c64"},
	// Zero pairs: clears the tags seq 2 set.
	{Record{Seq: 7, Type: RecordUpsertTagged, Part: 3, ID: 900002, Vec: fixedVec(7, 8), Tags: map[string]string{}},
		"3f0000007031a2a9030700000000000000a2bb0d0000000000030000000000000008000000c4c3c33fb5b4b43e9796963f00000000d3d2523fd3d2d23ff1f0f03ea6a5a53f0000"},
	{Record{Seq: 8, Type: RecordUpsertText, Part: 3, ID: 900008, Vec: fixedVec(8, 8), Text: "shared beta unique8"},
		"54000000e80ef456040800000000000000a8bb0d00000000000300000000000000080000009796963f00000000d3d2523fd3d2d23ff1f0f03ea6a5a53ff1f0f03df1f0703f13000000736861726564206265746120756e6971756538"},
	// Empty text: replaces seq 3's document with an empty one.
	{Record{Seq: 9, Type: RecordUpsertText, Part: 3, ID: 900003, Vec: fixedVec(9, 8), Text: ""},
		"4100000029addcea040900000000000000a3bb0d0000000000030000000000000008000000d3d2523fd3d2d23ff1f0f03ea6a5a53ff1f0f03df1f0703fe2e1e13f9796163f00000000"},
	{Record{Seq: 10, Type: RecordDelete, ID: 900006},
		"110000003669d418020a00000000000000a6bb0d0000000000"},
}

const (
	goldenWatermark = 4
	goldenTags      = `{"tags":{"900002":{"lang":"en","tier":"hot"}}}`
	goldenText      = `{"docs":{"900003":{"t":"shared alpha unique3","v":[0.9411765,1.7647059,0.5882353,1.4117647,0.23529412,1.0588236,1.882353,0.7058824]}}}`
	// The manifest payload as that build wrote it; only the two snapshot
	// images (built at test time) have their CRC and size filled in. The
	// sidecar CRCs are the captured ones.
	goldenManifestPayload = `{"generations":[{"snapshot":"snap-00000000000000000004.ann","watermark":4,"crc32c":%d,"bytes":%d,"tombstones":[900001],"inserted":3,"tags":"tags-00000000000000000004.json","tags_crc32c":2174191487,"tags_bytes":46,"text":"text-00000000000000000004.json","text_crc32c":4161571451,"text_bytes":134},{"snapshot":"snap-00000000000000000000.ann","watermark":0,"crc32c":%d,"bytes":%d}]}`
)

func goldenFrame(t testing.TB, i int) []byte {
	t.Helper()
	b, err := hex.DecodeString(goldenRecords[i].frame)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// applyDirect is the oracle's apply: what a record does, spelled out
// against the engine without the store.
func applyDirect(t testing.TB, e *core.Engine, r Record) {
	t.Helper()
	if r.Type == RecordDelete {
		e.Delete(r.ID)
		return
	}
	if err := e.AddAt(r.Part, r.Vec, r.ID, r.Level); err != nil {
		t.Fatal(err)
	}
	if r.Type == RecordUpsertTagged || r.Type == RecordUpsertTaggedText {
		e.SetTags(r.ID, r.Tags)
	}
	if r.Type == RecordUpsertText || r.Type == RecordUpsertTaggedText {
		e.SetText(r.ID, r.Text, r.Vec)
	}
}

// TestGoldenFrames: the one encoder writes kinds 1, 2, 3 (zero pairs
// included) and 4 (empty text included) byte-for-byte as before, and
// the one decoder reads them back to the same fields.
func TestGoldenFrames(t *testing.T) {
	for i, g := range goldenRecords {
		want := goldenFrame(t, i)
		if got := encodeRecord(g.rec); !bytes.Equal(got, want) {
			t.Errorf("seq %d (%s) encodes to\n%x, golden is\n%x", g.rec.Seq, g.rec.Type, got, want)
		}
		got, err := decodePayload(want[8:])
		if err != nil {
			t.Fatalf("seq %d: golden frame does not decode: %v", g.rec.Seq, err)
		}
		if got.Tags == nil {
			got.Tags = g.rec.Tags // kinds without a tag block decode to nil
		}
		if !reflect.DeepEqual(got, g.rec) {
			t.Errorf("seq %d decodes to %+v, want %+v", g.rec.Seq, got, g.rec)
		}
	}
}

// layParentStore writes the directory the pre-unification build left
// after the golden workload: both snapshot generations, both sidecars,
// the enveloped manifest, and one WAL segment holding all ten frames.
func layParentStore(t *testing.T, dir string, base []byte) {
	t.Helper()
	ckpt := loadEngineBytes(t, base)
	for _, g := range goldenRecords[:goldenWatermark] {
		applyDirect(t, ckpt, g.rec)
	}
	snap := imageWithoutDead(t, ckpt)
	payload := fmt.Sprintf(goldenManifestPayload,
		crc32.Checksum(snap, crcTable), len(snap), crc32.Checksum(base, crcTable), len(base))
	wal := fuzzSegment()
	for i := range goldenRecords {
		wal = append(wal, goldenFrame(t, i)...)
	}
	files := map[string][]byte{
		"snap-00000000000000000000.ann":  base,
		"snap-00000000000000000004.ann":  snap,
		"tags-00000000000000000004.json": []byte(goldenTags),
		"text-00000000000000000004.json": []byte(goldenText),
		manifestName: []byte(fmt.Sprintf(`{"payload":%s,"crc32c":%d}`+"\n",
			payload, crc32.Checksum([]byte(payload), crcTable))),
		"wal/wal-00000000000000000001.log": wal,
	}
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// imageWithoutDead is e's image as a build that predates the image's
// dead-row section wrote it: the graphs only, so which rows are dead
// lives in the manifest alone.
func imageWithoutDead(t *testing.T, e *core.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	dead := e.DeadRows()
	if len(dead) == 0 {
		return img
	}
	sec := 4 + 4*e.Partitions() // "DEAD", then a row count per partition
	for _, rows := range dead {
		sec += 4 * len(rows)
	}
	if cut := len(img) - sec; cut < 0 || string(img[cut:cut+4]) != "DEAD" {
		t.Fatalf("the image does not end in a %d-byte dead-row section", sec)
	}
	return img[:len(img)-sec]
}

// TestOpensParentStore: a store directory written before the write path
// was unified (plain, tagged and text upserts, a checkpoint with both
// sidecars, a WAL tail) opens on this build and answers the same
// searches, hybrid rankings and postings dump as the same records
// applied straight to the engine.
func TestOpensParentStore(t *testing.T) {
	base := engineBytes(t, 300, 67)
	dir := t.TempDir()
	layParentStore(t, dir, base)

	oracle := loadEngineBytes(t, base)
	for _, g := range goldenRecords {
		applyDirect(t, oracle, g.rec)
	}

	d, err := Open(dir, chaosOpts(nil))
	if err != nil {
		t.Fatalf("opening a parent-written store: %v", err)
	}
	defer d.Close()
	if st := d.Stats(); st.Replayed != int64(len(goldenRecords)-goldenWatermark) || st.LastSeq != 10 || st.Quarantined != 0 {
		t.Fatalf("replayed %d records to seq %d (%d quarantined), want 6 to 10 (0)", st.Replayed, st.LastSeq, st.Quarantined)
	}
	e := d.Engine()
	qs, _ := hybridQueries()
	qs = append(qs, fixedVec(5, 8), fixedVec(8, 8))
	if !sameResults(queryResults(t, e, qs, 10), queryResults(t, oracle, qs, 10)) {
		t.Fatal("searches diverge from the records applied directly")
	}
	if !reflect.DeepEqual(hybridResults(t, e), hybridResults(t, oracle)) {
		t.Fatal("hybrid rankings diverge from the records applied directly")
	}
	if got, want := postingsDump(t, e), postingsDump(t, oracle); !bytes.Equal(got, want) {
		t.Fatalf("postings dump diverges:\n%s\n---\n%s", got, want)
	}
	// The zero-pair kind 3 cleared the sidecar-restored tags; the
	// empty-text kind 4 replaced the sidecar-restored document with an
	// empty one (still a document: it counts).
	if got := e.Tags(900002); got != nil {
		t.Fatalf("id 900002 still tagged %v after the zero-pair record", got)
	}
	if got, ok := e.Text(900003); !ok || got != "" {
		t.Fatalf("id 900003 text = %q, %v; want the empty document", got, ok)
	}
	if got := e.TextCount(); got != 2 {
		t.Fatalf("TextCount = %d, want 2", got)
	}
	f, err := filter.Parse("lang=en")
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := e.SearchFiltered(fixedVec(2, 8), 5, f); err != nil || len(rs) != 0 {
		t.Fatalf("filter lang=en still matches %v (%v) after its only carrier was cleared", rs, err)
	}
}

// TestWritesParentFiles: the unified write path leaves the files the old
// one did — same WAL bytes, same sidecar bytes under the same names, the
// same manifest fields — for the golden workload up to its checkpoint.
func TestWritesParentFiles(t *testing.T) {
	base := engineBytes(t, 300, 67)
	dir := t.TempDir()
	d, err := Create(dir, loadEngineBytes(t, base), chaosOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, g := range goldenRecords[:goldenWatermark] {
		r := g.rec
		var a Attrs
		if r.Type.HasTags() {
			a.Tags = r.Tags
		}
		if r.Type.HasText() {
			a.Text = &r.Text
		}
		if r.Type == RecordDelete {
			err = d.Delete(r.ID)
		} else {
			err = d.UpsertWith(r.Vec, r.ID, a)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := fuzzSegment()
	for i := 0; i < goldenWatermark; i++ {
		want = append(want, goldenFrame(t, i)...)
	}
	if got := read("wal/wal-00000000000000000001.log"); !bytes.Equal(got, want) {
		t.Errorf("WAL segment is\n%x, the parent wrote\n%x", got, want)
	}
	if got := read("tags-00000000000000000004.json"); string(got) != goldenTags {
		t.Errorf("tags sidecar is %s, the parent wrote %s", got, goldenTags)
	}
	if got := read("text-00000000000000000004.json"); string(got) != goldenText {
		t.Errorf("text sidecar is %s, the parent wrote %s", got, goldenText)
	}
	// The manifest differs from the parent's only in the snapshot images'
	// CRC and size (the images are built at test time) and in naming the
	// deleted row — 900001 was partition 3's row 75 — where the parent
	// named the deleted ID.
	var env struct {
		Payload json.RawMessage `json:"payload"`
		CRC     uint32          `json:"crc32c"`
	}
	if err := json.Unmarshal(read(manifestName), &env); err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(env.Payload, &m); err != nil || len(m.Generations) != 2 {
		t.Fatalf("manifest payload %s: %v", env.Payload, err)
	}
	wantPayload := strings.Replace(fmt.Sprintf(goldenManifestPayload,
		m.Generations[0].CRC, m.Generations[0].Bytes, m.Generations[1].CRC, m.Generations[1].Bytes),
		`"tombstones":[900001]`, `"dead":{"3":[75]}`, 1)
	if string(env.Payload) != wantPayload {
		t.Errorf("manifest payload is\n%s, the parent's shape is\n%s", env.Payload, wantPayload)
	}
	if env.CRC != crc32.Checksum(env.Payload, crcTable) {
		t.Error("manifest envelope CRC does not cover its payload")
	}
}
