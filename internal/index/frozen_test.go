package index

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/hnsw"
	"repro/internal/vec"
)

func frozenFixture(t *testing.T, n, dim int, opts hnsw.FreezeOptions) (Local, *hnsw.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	ds := vec.NewDataset(dim, n)
	v := make([]float32, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		ds.Append(v, int64(i))
	}
	l, err := NewHNSWBuilder(hnsw.Config{})(ds, vec.L2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := Freeze(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := HNSWGraph(fl)
	if !ok {
		t.Fatal("frozen local lost its graph")
	}
	return fl, g
}

// TestFreezeRejectsExactIndexes: only HNSW-backed locals freeze.
func TestFreezeRejectsExactIndexes(t *testing.T) {
	ds := vec.NewDataset(2, 2)
	ds.Append([]float32{0, 0}, 0)
	ds.Append([]float32{1, 1}, 1)
	l, err := buildFlat(ds, vec.L2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Freeze(l, hnsw.FreezeOptions{}); err == nil {
		t.Error("froze a flat scan")
	}
}

// TestFrozenLocalTailMerge: rows added to the dynamic graph after the
// freeze must show up in search results immediately (exact tail scan),
// before any re-freeze happens.
func TestFrozenLocalTailMerge(t *testing.T) {
	fl, g := frozenFixture(t, 300, 8, hnsw.FreezeOptions{SQ8: true})
	if !Frozen(fl) {
		t.Fatal("not frozen")
	}
	// A vector far from the gaussian blob, inserted post-freeze: an
	// exact query for it must hit via the tail scan.
	probe := []float32{50, 50, 50, 50, 50, 50, 50, 50}
	if _, err := g.Add(probe, 900001); err != nil {
		t.Fatal(err)
	}
	rs, st, err := fl.SearchFiltered(probe, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 || rs[0].ID != 900001 {
		t.Fatalf("tail row not served: %v", rs)
	}
	if rs[0].Dist != 0 {
		t.Fatalf("tail distance %v, want 0", rs[0].Dist)
	}
	if st.QuantComps == 0 {
		t.Error("frozen first pass did no quantized work")
	}
	fst, ok := FrozenLocalStats(fl)
	if !ok {
		t.Fatal("no frozen stats")
	}
	if fst.TailLen != 1 || fst.TailScanned == 0 {
		t.Errorf("tail stats: %+v", fst)
	}
	if fst.FrozenLen != 300 || !fst.Quantized || fst.ArenaBytes <= 0 {
		t.Errorf("frozen stats: %+v", fst)
	}

	// Filtered: the tail scan visits every tail row but only scores the
	// ones the predicate admits, and DistComps reports the scored ones.
	for i := 0; i < 4; i++ {
		if _, err := g.Add(probe, int64(900002+i)); err != nil {
			t.Fatal(err)
		}
	}
	keep := func(id int64) bool { return id%2 == 0 } // tail rows 900002, 900004
	view, _ := FrozenView(fl)
	_, base, err := view.SearchEfFiltered(probe, 3, g.EfSearch(), 0, keep, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, st, err = fl.SearchFiltered(probe, 3, keep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[0].ID != 900002 || rs[1].ID != 900004 {
		t.Fatalf("filtered tail rows not served: %v", rs)
	}
	if got := st.DistComps - base.DistComps; got != 2 {
		t.Errorf("filtered tail scan reported %d distance computations, want 2 (matching tail rows)", got)
	}
	after, _ := FrozenLocalStats(fl)
	if got := after.TailScanned - fst.TailScanned; got != 5 {
		t.Errorf("filtered tail scan visited %d rows, want 5", got)
	}
}

// TestFrozenLocalBackgroundRefreeze: once the tail outgrows the
// threshold, a search kicks off a background re-freeze that folds the
// tail into the flat view.
func TestFrozenLocalBackgroundRefreeze(t *testing.T) {
	fl, g := frozenFixture(t, 100, 4, hnsw.FreezeOptions{})
	// Threshold for 100 frozen rows is max(256, 100/8) = 256.
	if got := refreezeThreshold(100); got != 256 {
		t.Fatalf("refreezeThreshold(100) = %d", got)
	}
	if got := refreezeThreshold(80000); got != 10000 {
		t.Fatalf("refreezeThreshold(80000) = %d", got)
	}
	rng := rand.New(rand.NewSource(12))
	v := make([]float32, 4)
	for i := 0; i < 300; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if _, err := g.Add(v, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	q := []float32{0, 0, 0, 0}
	if _, _, err := fl.SearchFiltered(q, 5, nil, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := FrozenLocalStats(fl)
		if st.Refreezes >= 1 && st.FrozenLen == 400 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-freeze never folded the tail: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// After the fold the tail is empty and searches stop tail-scanning.
	before, _ := FrozenLocalStats(fl)
	if _, _, err := fl.SearchFiltered(q, 5, nil, nil); err != nil {
		t.Fatal(err)
	}
	after, _ := FrozenLocalStats(fl)
	if after.TailScanned != before.TailScanned {
		t.Errorf("tail scans continued after fold: %d -> %d", before.TailScanned, after.TailScanned)
	}
}

// TestFrozenLocalSetRerankK: a negative budget flips the frozen local to
// exact scoring at runtime.
func TestFrozenLocalSetRerankK(t *testing.T) {
	fl, _ := frozenFixture(t, 500, 8, hnsw.FreezeOptions{SQ8: true})
	q := make([]float32, 8)
	if _, st, err := fl.SearchFiltered(q, 5, nil, nil); err != nil || st.QuantComps == 0 {
		t.Fatalf("quantized pass inactive: %+v, %v", st, err)
	}
	SetRerankK(fl, -1)
	if _, st, err := fl.SearchFiltered(q, 5, nil, nil); err != nil || st.QuantComps != 0 {
		t.Fatalf("rerank-k<0 still quantized: %+v, %v", st, err)
	}
	SetRerankK(fl, 20)
	if _, st, err := fl.SearchFiltered(q, 5, nil, nil); err != nil || st.Reranked == 0 || st.Reranked > 20 {
		t.Fatalf("fixed rerank budget not honored: %+v, %v", st, err)
	}
}
