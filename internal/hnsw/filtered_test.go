package hnsw

import (
	"math/rand"
	"testing"

	"repro/internal/topk"
	"repro/internal/vec"
)

// selKeep builds a predicate accepting ids where id % mod == 0, i.e. a
// selectivity of 1/mod over the sequential test ids.
func selKeep(mod int64) func(int64) bool {
	if mod <= 1 {
		return func(int64) bool { return true }
	}
	return func(id int64) bool { return id%mod == 0 }
}

func bruteKNNFiltered(ds *vec.Dataset, q []float32, k int, keep func(int64) bool) []topk.Result {
	c := topk.New(k)
	for i := 0; i < ds.Len(); i++ {
		if keep(ds.ID(i)) {
			c.Push(ds.ID(i), vec.L2Distance(q, ds.At(i)))
		}
	}
	return c.Results()
}

// TestSearchFilteredGolden pins pushdown recall against exact filtered
// brute force at selectivities {1.0, 0.1, 0.01}, on both the dynamic
// graph and the frozen layouts (exact and SQ8).
func TestSearchFilteredGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const (
		n       = 4000
		dim     = 16
		k       = 10
		ef      = 128
		queries = 40
	)
	ds := clusteredData(rng, n, dim, 12)
	g, _, err := Build(ds, DefaultConfig(vec.L2), 1)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := g.Freeze(FreezeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fq, err := g.Freeze(FreezeOptions{SQ8: true})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name      string
		mod       int64
		minRecall float64
	}{
		{"sel_1.00", 1, 0.95},
		{"sel_0.10", 10, 0.95},
		{"sel_0.01", 100, 0.95},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keep := selKeep(tc.mod)
			var sumDyn, sumFz, sumQ float64
			for qi := 0; qi < queries; qi++ {
				q := ds.At(rng.Intn(n))
				truth := bruteKNNFiltered(ds, q, k, keep)
				if len(truth) == 0 {
					t.Fatal("filtered ground truth empty")
				}

				got, _, err := g.SearchEfFiltered(q, k, ef, keep, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertAllMatch(t, got, keep)
				sumDyn += recallOf(got, truth)

				fr, _, err := fz.SearchEfFiltered(q, k, ef, -1, keep, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertAllMatch(t, fr, keep)
				sumFz += recallOf(fr, truth)

				qr, _, err := fq.SearchEfFiltered(q, k, ef, 4*k, keep, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertAllMatch(t, qr, keep)
				sumQ += recallOf(qr, truth)
			}
			for _, r := range []struct {
				name string
				mean float64
			}{
				{"dynamic", sumDyn / queries},
				{"frozen", sumFz / queries},
				{"frozen_sq8", sumQ / queries},
			} {
				if r.mean < tc.minRecall {
					t.Errorf("%s filtered recall %.3f < %.3f at %s", r.name, r.mean, tc.minRecall, tc.name)
				}
			}
		})
	}
}

func assertAllMatch(t *testing.T, rs []topk.Result, keep func(int64) bool) {
	t.Helper()
	for _, r := range rs {
		if !keep(r.ID) {
			t.Fatalf("result id %d violates the filter", r.ID)
		}
	}
}

// TestSearchFilteredBeatsPostFilter demonstrates why pushdown exists:
// at 1% selectivity, post-filtering an unfiltered top-k list yields far
// fewer valid hits than traversal-time filtering.
func TestSearchFilteredBeatsPostFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const (
		n   = 5000
		dim = 12
		k   = 10
		ef  = 96
	)
	ds := clusteredData(rng, n, dim, 8)
	g, _, err := Build(ds, DefaultConfig(vec.L2), 1)
	if err != nil {
		t.Fatal(err)
	}
	keep := selKeep(100)
	var pushdownHits, postHits int
	for qi := 0; qi < 40; qi++ {
		q := ds.At(rng.Intn(n))
		truth := map[int64]bool{}
		for _, r := range bruteKNNFiltered(ds, q, k, keep) {
			truth[r.ID] = true
		}
		got, _, err := g.SearchEfFiltered(q, k, ef, keep, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if truth[r.ID] {
				pushdownHits++
			}
		}
		raw, _, err := g.SearchEf(q, k, ef)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range raw {
			if keep(r.ID) && truth[r.ID] {
				postHits++
			}
		}
	}
	if pushdownHits <= postHits {
		t.Fatalf("pushdown hits %d not better than post-filter hits %d", pushdownHits, postHits)
	}
	t.Logf("valid hits over 40 queries: pushdown=%d post-filter=%d", pushdownHits, postHits)
}

// TestSearchFilteredNilAndEdges covers the degenerate paths: nil
// predicate equals unfiltered, nothing-matches yields empty results,
// and dimension/empty errors still fire.
func TestSearchFilteredNilAndEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := clusteredData(rng, 300, 8, 4)
	g, _, err := Build(ds, DefaultConfig(vec.L2), 1)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.At(0)

	plain, _, err := g.SearchEf(q, 5, 32)
	if err != nil {
		t.Fatal(err)
	}
	viaNil, _, err := g.SearchEfFiltered(q, 5, 32, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(viaNil) {
		t.Fatalf("nil filter diverges from unfiltered: %d vs %d", len(plain), len(viaNil))
	}
	for i := range plain {
		if plain[i] != viaNil[i] {
			t.Fatalf("nil filter result %d diverges: %+v vs %+v", i, plain[i], viaNil[i])
		}
	}

	none, _, err := g.SearchEfFiltered(q, 5, 32, func(int64) bool { return false }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("false predicate returned %d results", len(none))
	}

	if _, _, err := g.SearchEfFiltered(make([]float32, 3), 5, 32, selKeep(1), nil); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	empty, _ := New(8, DefaultConfig(vec.L2))
	if _, _, err := empty.SearchEfFiltered(make([]float32, 8), 5, 32, selKeep(1), nil); err != ErrEmpty {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}

	fz, err := g.Freeze(FreezeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fnone, _, err := fz.SearchEfFiltered(q, 5, 32, -1, func(int64) bool { return false }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fnone) != 0 {
		t.Fatalf("frozen false predicate returned %d results", len(fnone))
	}

	// Non-positive k is one error on both layouts, filtered or not.
	for _, k := range []int{0, -1} {
		for _, keep := range []func(int64) bool{nil, selKeep(1)} {
			_, _, derr := g.SearchEfFiltered(q, k, 32, keep, nil)
			_, _, ferr := fz.SearchEfFiltered(q, k, 32, -1, keep, nil)
			if derr == nil || ferr == nil || derr.Error() != ferr.Error() {
				t.Fatalf("k=%d filtered=%v: dynamic err %v, frozen err %v; want the same non-nil error", k, keep != nil, derr, ferr)
			}
		}
	}
}
