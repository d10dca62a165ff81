package store

import (
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestRedeletedAcrossPartitionsStaysDeleted deletes an ID, re-upserts it
// into another partition while the first one compacts, and deletes it
// again: the ID must never come back — not when the compaction swaps,
// not when the second partition compacts, not after recovery — and its
// text and tags go with its last row. When the fold cleared the ID's
// tombstone, the row in the second partition was live again.
func TestRedeletedAcrossPartitionsStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	e, ds := smallEngine(t, 800, 19)
	opts := Options{SyncEvery: 1, CompactRatio: -1}
	d, err := Create(dir, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	const id = 900001
	home := func(v []float32) int {
		p, err := e.Home(v)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	v1, v2 := ds.At(0), ds.At(1)
	for i := 2; home(v2) == home(v1); i++ {
		v2 = ds.At(i)
	}
	a := withText("doomed doc")
	a.Tags = map[string]string{"era": "old"}
	if err := d.UpsertWith(v1, id, a); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(id); err != nil {
		t.Fatal(err)
	}
	c, err := d.beginCompaction(home(v1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Upsert(v2, id); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := d.finishCompaction(c); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, e *core.Engine) {
		t.Helper()
		for _, q := range [][]float32{v1, v2} {
			rs, err := e.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				if r.ID == id {
					t.Errorf("%s: the deleted ID came back: %v", stage, rs)
				}
			}
		}
		if _, ok := e.Text(id); ok || e.Tags(id) != nil {
			t.Errorf("%s: the deleted ID kept its text or tags", stage)
		}
		for _, s := range e.SearchLexical("doomed", 5, nil) {
			t.Errorf("%s: SearchLexical returned %d", stage, s.ID)
		}
	}
	check("after the swap", e)
	if err := d.CompactPartition(home(v2)); err != nil {
		t.Fatal(err)
	}
	check("after the second partition compacted", e)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	check("after recovery", d.Engine())
}

// TestUpsertRefreshesDocumentVector: an upsert without text moves the
// vector the ID's document holds for hybrid re-scoring, live and on WAL
// replay alike. Before, the document kept the vector it was indexed
// with, and hybrid search reported the distance to the old vector.
func TestUpsertRefreshesDocumentVector(t *testing.T) {
	dir := t.TempDir()
	e, _ := smallEngine(t, 400, 23)
	d, err := Create(dir, e, chaosOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	const id = 900001
	old, moved := fixedVec(3, 8), fixedVec(9, 8)
	if err := d.UpsertWith(old, id, withText("needle")); err != nil {
		t.Fatal(err)
	}
	if err := d.Upsert(moved, id); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, e *core.Engine) {
		t.Helper()
		hs, err := e.SearchHybrid(moved, "needle", 3, core.HybridOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(hs) == 0 || hs[0].ID != id || !hs[0].HasDist || hs[0].Dist != 0 {
			t.Errorf("%s: hybrid hits %+v, want ID %d first at distance 0", stage, hs, id)
		}
	}
	check("live", e)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, chaosOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if st := d2.Stats(); st.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2", st.Replayed)
	}
	check("replayed", d2.Engine())
}

// TestLoadRefusesBadDeadRows: a generation whose dead rows cannot
// describe its image — a row past the end of its partition, or one row
// named twice — is refused like a corrupt snapshot, and Open falls back
// to the previous generation plus a longer WAL replay, ending in the
// same state.
func TestLoadRefusesBadDeadRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		dead map[string][]uint32
	}{
		{"past the end", map[string][]uint32{"0": {1 << 20}}},
		{"named twice", map[string][]uint32{"0": {0, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, _ := smallEngine(t, 400, 29)
			d, err := Create(dir, e, chaosOpts(nil))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				if err := d.Upsert(fixedVec(i, 8), int64(900000+i)); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []int64{900001, 7, 11} {
				if err := d.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			qs := [][]float32{fixedVec(1, 8), fixedVec(4, 8), fixedVec(40, 8)}
			want, wantDead := queryResults(t, e, qs, 10), e.Tombstones()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			setNewestDead(t, dir, tc.dead)

			d2, err := Open(dir, chaosOpts(nil))
			if err != nil {
				t.Fatalf("Open did not fall back: %v", err)
			}
			defer d2.Close()
			if st := d2.Stats(); st.Fallbacks != 1 || st.Quarantined != 1 {
				t.Fatalf("fallbacks %d, quarantined %d: want the bad generation refused", st.Fallbacks, st.Quarantined)
			}
			if got := queryResults(t, d2.Engine(), qs, 10); !sameResults(got, want) {
				t.Fatalf("recovered searches diverge:\n%v\n%v", got, want)
			}
			if got := d2.Engine().Tombstones(); got != wantDead {
				t.Fatalf("recovered %d dead rows, want %d", got, wantDead)
			}
		})
	}
}

// setNewestDead rewrites the manifest with the newest generation's dead
// rows replaced, under a valid envelope checksum.
func setNewestDead(t *testing.T, dir string, dead map[string][]uint32) {
	t.Helper()
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env manifestEnvelope
	var m struct {
		Generations []map[string]any `json:"generations"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Payload, &m); err != nil || len(m.Generations) != 2 {
		t.Fatalf("manifest payload %s: %v", env.Payload, err)
	}
	m.Generations[0]["dead"] = dead
	if env.Payload, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	env.CRC = crc32.Checksum(env.Payload, crcTable)
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
