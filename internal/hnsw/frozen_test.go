package hnsw

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/topk"
	"repro/internal/vec"
)

func frozenTestData(seed int64, n, dim int) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := vec.NewDataset(dim, n)
	v := make([]float32, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		ds.Append(v, int64(i)*3+1) // non-contiguous global IDs
	}
	return ds
}

// TestFrozenFloatBitIdentical: the frozen float32 path must return
// byte-for-byte the same results as the dynamic graph — same IDs, same
// distances, same order — across seeds, dims and beam widths. The flat
// CSR layout preserves per-node link order and the traversal shares the
// dynamic path's tie-breaking, so this is an equality test, not an
// epsilon test.
func TestFrozenFloatBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		n, dim int
		ef     int
	}{
		{1, 400, 8, 10},
		{2, 1200, 16, 50},
		{3, 2000, 32, 100},
	} {
		ds := frozenTestData(tc.seed, tc.n, tc.dim)
		cfg := DefaultConfig(vec.L2)
		cfg.Seed = tc.seed
		g, _, err := Build(ds, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		f, err := g.Freeze(FreezeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if f.Len() != tc.n || f.Dim() != tc.dim {
			t.Fatalf("frozen shape %dx%d, want %dx%d", f.Len(), f.Dim(), tc.n, tc.dim)
		}
		rng := rand.New(rand.NewSource(tc.seed + 100))
		q := make([]float32, tc.dim)
		for qi := 0; qi < 50; qi++ {
			for j := range q {
				q[j] = float32(rng.NormFloat64())
			}
			want, wst, err := g.SearchEf(q, 10, tc.ef)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := f.SearchEf(q, 10, tc.ef, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d query %d: %d results, want %d", tc.seed, qi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d query %d rank %d: frozen %+v != dynamic %+v", tc.seed, qi, i, got[i], want[i])
				}
			}
			if gst.DistComps != wst.DistComps || gst.Hops != wst.Hops {
				t.Fatalf("seed %d query %d: frozen work (%d,%d) != dynamic (%d,%d)",
					tc.seed, qi, gst.DistComps, gst.Hops, wst.DistComps, wst.Hops)
			}
		}
	}
}

// TestFrozenSQ8RerankInfExact: rerankK < 0 disables quantization — the
// quantized-frozen index must be bit-identical to the exact path even
// with a code slab present.
func TestFrozenSQ8RerankInfExact(t *testing.T) {
	ds := frozenTestData(4, 1000, 16)
	cfg := DefaultConfig(vec.L2)
	g, _, err := Build(ds, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := g.Freeze(FreezeOptions{SQ8: true})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Quantized() {
		t.Fatal("codec missing")
	}
	rng := rand.New(rand.NewSource(40))
	q := make([]float32, 16)
	for qi := 0; qi < 30; qi++ {
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		want, _, err := g.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := f.SearchEf(q, 10, g.EfSearch(), -1)
		if err != nil {
			t.Fatal(err)
		}
		if st.QuantComps != 0 || st.Reranked != 0 {
			t.Fatalf("rerankK<0 still did quantized work: %+v", st)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: %+v != %+v", qi, i, got[i], want[i])
			}
		}
	}
}

// TestFrozenSQ8Recall: the quantized first pass with a modest re-rank
// budget must stay close to the exact path, and must actually do its
// scoring in the byte domain.
func TestFrozenSQ8Recall(t *testing.T) {
	ds := frozenTestData(5, 3000, 24)
	cfg := DefaultConfig(vec.L2)
	g, _, err := Build(ds, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := g.Freeze(FreezeOptions{SQ8: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(50))
	q := make([]float32, 24)
	const k = 10
	hits, total := 0, 0
	for qi := 0; qi < 50; qi++ {
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		exact, _, err := g.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := f.SearchEf(q, k, g.EfSearch(), 4*k)
		if err != nil {
			t.Fatal(err)
		}
		if st.QuantComps == 0 {
			t.Fatal("no quantized scans recorded")
		}
		if st.Reranked == 0 || st.Reranked > 4*k {
			t.Fatalf("reranked %d, want in (0, %d]", st.Reranked, 4*k)
		}
		in := make(map[int64]bool, len(exact))
		for _, r := range exact {
			in[r.ID] = true
		}
		for _, r := range got {
			if in[r.ID] {
				hits++
			}
		}
		total += len(exact)
	}
	if recall := float64(hits) / float64(total); recall < 0.9 {
		t.Errorf("sq8 recall@%d vs exact = %.3f, want >= 0.9", k, recall)
	}
}

// TestFrozenSQ8RequiresMonotoneMetric: byte-domain distances rank only
// L2-family metrics; freezing with SQ8 under cosine must error.
func TestFrozenSQ8RequiresMonotoneMetric(t *testing.T) {
	ds := frozenTestData(6, 100, 8)
	cfg := DefaultConfig(vec.Cosine)
	g, _, err := Build(ds, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Freeze(FreezeOptions{SQ8: true}); err == nil {
		t.Error("SQ8 freeze accepted a non-L2 metric")
	}
	if _, err := g.Freeze(FreezeOptions{}); err != nil {
		t.Errorf("plain freeze should work under cosine: %v", err)
	}
}

// TestFrozenEmptyAndTinyGraph: freezing an empty graph yields an empty
// view whose search reports ErrEmpty; one-point graphs work.
func TestFrozenEmptyAndTinyGraph(t *testing.T) {
	g, err := New(4, DefaultConfig(vec.L2))
	if err != nil {
		t.Fatal(err)
	}
	f, err := g.Freeze(FreezeOptions{SQ8: true})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Fatalf("empty freeze has %d rows", f.Len())
	}
	if _, _, err := f.Search([]float32{1, 2, 3, 4}, 5); err != ErrEmpty {
		t.Fatalf("empty search err = %v, want ErrEmpty", err)
	}
	if _, err := g.Add([]float32{1, 2, 3, 4}, 7); err != nil {
		t.Fatal(err)
	}
	f, err = g.Freeze(FreezeOptions{SQ8: true})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := f.Search([]float32{1, 2, 3, 4}, 5)
	if err != nil || len(rs) != 1 || rs[0].ID != 7 {
		t.Fatalf("one-point frozen search = %v, %v", rs, err)
	}
	if f.ArenaBytes() <= 0 {
		t.Error("ArenaBytes not accounted")
	}
}

// TestFrozenSnapshotIgnoresLaterAdds: a freeze taken mid-ingest serves
// exactly the rows committed at freeze time; later adds are invisible to
// it (the serving layer's tail scan covers them).
func TestFrozenSnapshotIgnoresLaterAdds(t *testing.T) {
	ds := frozenTestData(7, 500, 8)
	g, _, err := Build(ds, DefaultConfig(vec.L2), 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := g.Freeze(FreezeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add([]float32{0, 0, 0, 0, 0, 0, 0, 0}, 999999); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 500 {
		t.Fatalf("frozen view grew to %d", f.Len())
	}
	rs, _, err := f.SearchEf(make([]float32, 8), 5, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.ID == 999999 {
			t.Fatal("frozen view surfaced a post-freeze row")
		}
	}
}

// TestFreezeSharesGraphRows: the frozen layout reads the graph's own
// rows and IDs instead of copying them, and a later Add that regrows the
// graph's backing array leaves the frozen view's rows, and so its
// answers, exactly as they were. A fresh Freeze reads the new array.
func TestFreezeSharesGraphRows(t *testing.T) {
	const dim = 16
	ds := frozenTestData(11, 600, dim)
	g, _, err := Build(ds, DefaultConfig(vec.L2), 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := g.Freeze(FreezeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shares := func(f *Frozen, snap *vec.Dataset) bool {
		return unsafe.SliceData(f.arena) == unsafe.SliceData(snap.Data) &&
			unsafe.SliceData(f.ids) == unsafe.SliceData(snap.IDs)
	}
	before := g.DataSnapshot()
	if !shares(f, before) {
		t.Fatal("frozen rows and IDs are a copy, not the graph's own")
	}
	rows, ids := slices.Clone(f.arena), slices.Clone(f.ids)
	queries := frozenTestData(12, 20, dim)
	search := func(f *Frozen) [][]topk.Result {
		out := make([][]topk.Result, queries.Len())
		for i := range out {
			rs, _, err := f.SearchEf(queries.At(i), 10, 50, 0)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = rs
		}
		return out
	}
	want := search(f)

	extra := frozenTestData(13, 4*ds.Len(), dim)
	for i := 0; unsafe.SliceData(g.DataSnapshot().Data) == unsafe.SliceData(before.Data); i++ {
		if i == extra.Len() {
			t.Fatal("graph rows were never reallocated")
		}
		if _, err := g.Add(extra.At(i), 1_000_000+int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.arena) != len(rows) || !slices.Equal(f.ids, ids) {
		t.Fatalf("frozen view changed shape after regrowth: %d rows, %d IDs", len(f.arena)/dim, len(f.ids))
	}
	for i, x := range rows {
		if math.Float32bits(f.arena[i]) != math.Float32bits(x) {
			t.Fatalf("frozen row value %d changed after regrowth: %v, want %v", i, f.arena[i], x)
		}
	}
	for i, rs := range search(f) {
		if !slices.Equal(rs, want[i]) {
			t.Fatalf("query %d after regrowth: %v, want %v", i, rs, want[i])
		}
	}

	f2, err := g.Freeze(FreezeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !shares(f2, g.DataSnapshot()) {
		t.Fatal("refreeze does not read the graph's new backing array")
	}
}

// TestFreezeAllocatesNoRowCopy: freezing allocates the CSR adjacency
// and its per-node link snapshot, but no second copy of the rows. The
// float rows of 2,000 × 128 are 1,024,000 bytes, so a copy alone would
// exceed the bound.
func TestFreezeAllocatesNoRowCopy(t *testing.T) {
	const n, dim = 2000, 128
	g, _, err := Build(frozenTestData(21, n, dim), DefaultConfig(vec.L2), 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := g.Freeze(FreezeOptions{SQ8: false})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const rowBytes = n * dim * 4
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Freeze allocated %d B for %d rows (%d B of rows)", got, f.Len(), rowBytes)
	if got >= rowBytes {
		t.Fatalf("Freeze allocated %d B, at least the %d B of rows it should read in place", got, rowBytes)
	}
}
