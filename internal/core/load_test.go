package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// savedEngine builds a tiny engine and returns its serialized bytes.
func savedEngine(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ds := vec.NewDataset(6, 200)
	for i := 0; i < 200; i++ {
		v := make([]float32, 6)
		for j := range v {
			v[j] = rng.Float32()
		}
		ds.Append(v, int64(i))
	}
	cfg := DefaultConfig(4)
	cfg.K = 5
	e, err := NewEngine(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadEngineTruncated(t *testing.T) {
	full := savedEngine(t)
	// Truncation points covering every section: empty file, mid-magic,
	// mid-header, mid tree-length, mid tree blob, mid partition stream,
	// and one byte short of complete.
	cuts := []int{0, 2, 4, 9, 17, 40, len(full) / 2, len(full) - 1}
	for _, n := range cuts {
		if n > len(full) {
			continue
		}
		_, err := LoadEngine(bytes.NewReader(full[:n]))
		if err == nil {
			t.Fatalf("LoadEngine(%d of %d bytes): want error, got nil", n, len(full))
		}
		// Every truncation must surface as a described unexpected-EOF (or
		// a named decode failure), never a bare io.EOF.
		if err == io.EOF {
			t.Fatalf("LoadEngine(%d bytes): bare io.EOF leaked: %v", n, err)
		}
		if !strings.Contains(err.Error(), "core:") {
			t.Fatalf("LoadEngine(%d bytes): undescriptive error %q", n, err)
		}
	}
}

func TestLoadEngineBadMagic(t *testing.T) {
	full := savedEngine(t)
	bad := append([]byte("NOPE"), full[4:]...)
	_, err := LoadEngine(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "bad engine magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}
}

func TestLoadEngineCorruptHeader(t *testing.T) {
	full := savedEngine(t)
	// Zero dimension.
	bad := append([]byte(nil), full...)
	bad[4], bad[5], bad[6], bad[7] = 0, 0, 0, 0
	if _, err := LoadEngine(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "dimension") {
		t.Fatalf("want corrupt-dimension error, got %v", err)
	}
	// Absurd partition count must fail fast, not loop decoding garbage.
	bad = append([]byte(nil), full...)
	bad[8], bad[9], bad[10], bad[11] = 0xff, 0xff, 0xff, 0xff
	if _, err := LoadEngine(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "partition count") {
		t.Fatalf("want corrupt-partition-count error, got %v", err)
	}
}

func TestLoadEngineCorruptTree(t *testing.T) {
	full := savedEngine(t)
	bad := append([]byte(nil), full...)
	// Scribble over the gob-encoded routing tree (starts at offset 20).
	for i := 20; i < 40 && i < len(bad); i++ {
		bad[i] ^= 0xa5
	}
	_, err := LoadEngine(bytes.NewReader(bad))
	if err == nil {
		t.Fatal("want error decoding corrupt tree, got nil")
	}
	if !strings.Contains(err.Error(), "core:") {
		t.Fatalf("undescriptive error %q", err)
	}
}

func TestLoadEngineRoundTrip(t *testing.T) {
	full := savedEngine(t)
	e, err := LoadEngine(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 200 || e.Partitions() != 4 || e.Dim() != 6 {
		t.Fatalf("round trip mismatch: len=%d parts=%d dim=%d", e.Len(), e.Partitions(), e.Dim())
	}
	if _, err := e.Search(make([]float32, 6), 3); err != nil {
		t.Fatal(err)
	}
}

func TestSearchBatchContextCancel(t *testing.T) {
	full := savedEngine(t)
	e, err := LoadEngine(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	qs := vec.NewDataset(6, 8)
	for i := 0; i < 8; i++ {
		qs.Append(make([]float32, 6), int64(i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SearchBatchContext(ctx, qs, 3, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// And an un-canceled context behaves exactly like SearchBatch.
	res, err := e.SearchBatchContext(context.Background(), qs, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 {
		t.Fatalf("want 8 result rows, got %d", len(res))
	}
	for i, r := range res {
		if len(r) != 3 {
			t.Fatalf("row %d: want 3 results, got %d", i, len(r))
		}
	}
}

// TestSaveKeepsDeadRows: an image saved after a delete, and after an
// upsert that replaced a row, loads with those rows still dead. Before
// Save wrote them, LoadEngine served the deleted ID at distance 0 and
// counted no dead row.
func TestSaveKeepsDeadRows(t *testing.T) {
	const n, k, id = 2000, 10, 5
	ds, err := dataset.Named("sift", n, 71)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]float32(nil), ds.At(id)...)
	far := make([]float32, len(old))
	for i, x := range old {
		far[i] = x + 1000
	}
	e, err := NewEngine(ds, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	reload := func(e *Engine) *Engine {
		t.Helper()
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadEngine(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return loaded
	}
	// check searches at the ID's old vector: it must not come back from
	// its dead row.
	check := func(step string, e *Engine, wantDead int) {
		t.Helper()
		rs, err := e.Search(old, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.ID == id && r.Dist == 0 {
				t.Errorf("%s: ID %d answered from its dead row: %v", step, id, rs)
			}
		}
		if got := e.Tombstones(); got != wantDead {
			t.Errorf("%s: Tombstones() = %d, want %d", step, got, wantDead)
		}
	}

	e.Delete(id)
	check("deleted, loaded", reload(e), 1)

	// Upsert it back far away: the new row is live, the old one stays
	// dead — one dead row, which the reloaded engine must know too.
	e, err = NewEngine(ds, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Add(far, id); err != nil {
		t.Fatal(err)
	}
	loaded := reload(e)
	check("replaced, loaded", loaded, 1)
	rs, err := loaded.Search(far, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].ID != id || rs[0].Dist != 0 {
		t.Errorf("replaced, loaded: the live row answers %v, want ID %d at 0", rs, id)
	}
	// A saved, loaded and saved-again image keeps them as well.
	check("replaced, loaded twice", reload(loaded), 1)
}

// TestLoadEngineRefusesBadDeadRows: the dead-row section must name rows
// of their partitions, ascending, and nothing else may follow the
// graphs.
func TestLoadEngineRefusesBadDeadRows(t *testing.T) {
	clean := savedEngine(t)
	for _, tc := range []struct {
		name string
		tail []uint32
	}{
		{"past the end", []uint32{1, 1 << 20, 0, 0, 0}},
		{"named twice", []uint32{2, 3, 3, 0, 0, 0}},
		{"truncated", []uint32{2, 3}},
		{"more rows than the partition", []uint32{1 << 30, 0, 0, 0}},
	} {
		img := append([]byte(nil), clean...)
		img = append(img, deadMagic...)
		for _, x := range tc.tail {
			img = binary.LittleEndian.AppendUint32(img, x)
		}
		if _, err := LoadEngine(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), "core:") {
			t.Errorf("%s: LoadEngine = %v, want a described refusal", tc.name, err)
		}
	}
	if _, err := LoadEngine(bytes.NewReader(append(append([]byte(nil), clean...), "JUNK"...))); err == nil {
		t.Error("LoadEngine took an image with junk after its graphs")
	}
}
