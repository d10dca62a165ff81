package hnsw

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topk"
	"repro/internal/vec"
)

// traversalFixture is the fixed-seed 1,250×128 graph (one partition of
// the serving benchmark's corpus, near enough) in its three layouts,
// plus a fixed query set.
type traversalFixture struct {
	g       *Graph
	fz, fq  *Frozen // float-only and SQ8-built frozen views
	queries [][]float32
}

func newTraversalFixture(tb testing.TB) *traversalFixture {
	tb.Helper()
	const n, dim = 1250, 128
	g, _, err := Build(frozenTestData(11, n, dim), DefaultConfig(vec.L2), 1)
	if err != nil {
		tb.Fatal(err)
	}
	fx := &traversalFixture{g: g}
	if fx.fz, err = g.Freeze(FreezeOptions{}); err != nil {
		tb.Fatal(err)
	}
	if fx.fq, err = g.Freeze(FreezeOptions{SQ8: true}); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(111))
	for i := 0; i < 16; i++ {
		q := make([]float32, dim)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		fx.queries = append(fx.queries, q)
	}
	return fx
}

// search runs one layout of the fixture by name: "dynamic", "frozen"
// (float rows only) or "frozen_sq8" (SQ8-built; rerankK < 0 scores it
// exactly, 0 runs the quantized pass).
func (fx *traversalFixture) search(layout string, q []float32, k, ef, rerankK int, keep func(int64) bool) ([]topk.Result, Stats, error) {
	switch layout {
	case "dynamic":
		return fx.g.SearchEfFiltered(q, k, ef, keep, nil)
	case "frozen":
		return fx.fz.SearchEfFiltered(q, k, ef, rerankK, keep, nil)
	}
	return fx.fq.SearchEfFiltered(q, k, ef, rerankK, keep, nil)
}

var traversalLayouts = []string{"dynamic", "frozen", "frozen_sq8"}

func sameResults(a, b []topk.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTraversalCrossLayoutIdentity states the invariant the single beam
// rests on: the dynamic graph and the exact frozen layouts (built with
// or without a code slab) run the same traversal — identical results
// AND identical work counters under every predicate — and a predicate
// that admits everything is the nil predicate on all three layouts,
// the SQ8 quantized pass included.
func TestTraversalCrossLayoutIdentity(t *testing.T) {
	fx := newTraversalFixture(t)
	always := func(int64) bool { return true }
	const k = 10
	for _, ef := range []int{16, 128} {
		for _, kc := range []struct {
			name string
			keep func(int64) bool
		}{
			{"nil", nil},
			{"always", always},
			{"mod10", selKeep(10)},
			{"mod100", selKeep(100)},
		} {
			t.Run(fmt.Sprintf("ef%d/%s", ef, kc.name), func(t *testing.T) {
				for qi, q := range fx.queries {
					want, wst, err := fx.search("dynamic", q, k, ef, -1, kc.keep)
					if err != nil {
						t.Fatal(err)
					}
					for _, lay := range traversalLayouts[1:] {
						got, gst, err := fx.search(lay, q, k, ef, -1, kc.keep)
						if err != nil {
							t.Fatal(err)
						}
						if !sameResults(got, want) || gst != wst {
							t.Fatalf("query %d: %s exact (%v, %+v) != dynamic (%v, %+v)", qi, lay, got, gst, want, wst)
						}
					}
				}
			})
		}
		t.Run(fmt.Sprintf("ef%d/always_is_nil", ef), func(t *testing.T) {
			for qi, q := range fx.queries {
				for _, lay := range traversalLayouts {
					a, ast, err := fx.search(lay, q, k, ef, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					b, bst, err := fx.search(lay, q, k, ef, 0, always)
					if err != nil {
						t.Fatal(err)
					}
					if lay == "frozen_sq8" && ast.QuantComps == 0 {
						t.Fatal("SQ8 pass did no quantized work")
					}
					if !sameResults(a, b) || ast != bst {
						t.Fatalf("query %d: %s always-true (%v, %+v) != nil (%v, %+v)", qi, lay, b, bst, a, ast)
					}
				}
			}
		})
	}
}

// TestTraversalAllocCeiling bounds allocations per search so that a
// scorer closure or interface value that starts escaping per distance
// call fails deterministically instead of hiding in benchmark noise.
// Each ceiling is the count measured on this fixture. The frozen
// layouts make a fixed handful per search (collector, frontier growth,
// result slices: 13 / 16 float and 16 / 19 SQ8, plain / 1%-filtered).
// The dynamic graph copies one grown neighbour list per hop.
//
// Under the race detector sync.Pool drops a quarter of its Puts, so
// some searches build a fresh searchCtx: over 20 runs every row read
// one more in about a quarter of them, and raceSlack is twice that.
func TestTraversalAllocCeiling(t *testing.T) {
	fx := newTraversalFixture(t)
	q := fx.queries[0]
	const k, ef = 10, 64
	raceSlack := 0.0
	if raceEnabled {
		raceSlack = 2
	}
	for _, tc := range []struct {
		layout  string
		keep    func(int64) bool
		ceiling float64
	}{
		{"frozen", nil, 13},
		{"frozen", selKeep(100), 16},
		{"frozen_sq8", nil, 16},
		{"frozen_sq8", selKeep(100), 19},
		{"dynamic", nil, 346},
	} {
		name := fmt.Sprintf("%s/filtered=%v", tc.layout, tc.keep != nil)
		if _, _, err := fx.search(tc.layout, q, k, ef, 0, tc.keep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ceiling := tc.ceiling + raceSlack
		got := testing.AllocsPerRun(20, func() { fx.search(tc.layout, q, k, ef, 0, tc.keep) })
		t.Logf("%s: %.0f allocs/search (ceiling %.0f)", name, got, ceiling)
		if got > ceiling {
			t.Errorf("%s: %.0f allocs/search, ceiling %.0f", name, got, ceiling)
		}
	}
}

var benchSink []topk.Result

// BenchmarkTraversal times one search per layout, unfiltered and under
// a 1% predicate, cycling through the fixture's queries.
func BenchmarkTraversal(b *testing.B) {
	fx := newTraversalFixture(b)
	const k, ef = 10, 64
	for _, lay := range traversalLayouts {
		for _, kc := range []struct {
			name string
			keep func(int64) bool
		}{{"plain", nil}, {"filtered_s01", selKeep(100)}} {
			b.Run(lay+"/"+kc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rs, _, err := fx.search(lay, fx.queries[i%len(fx.queries)], k, ef, 0, kc.keep)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = rs
				}
			})
		}
	}
}
