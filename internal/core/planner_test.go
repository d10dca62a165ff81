package core

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/index"
	"repro/internal/topk"
	"repro/internal/vec"
)

// TestFilteredLadderOracle walks the selectivity ladder in every
// serving and routing mode. Where the planner scans, the answer must be
// the brute-force filtered truth — IDs and distances — at a cost of
// exactly the matching rows; where it runs the beam, the answer and its
// work counters must be what the commit before the planner returned.
func TestFilteredLadderOracle(t *testing.T) {
	raw, err := os.ReadFile(ladderGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	ds := clustered(t, ladderN, ladderDim, 10, 21)
	qs := ladderQueries(ds, 6)
	for _, mode := range ladderModes {
		e := ladderEngine(t, ds, mode.mutate)
		for _, routing := range ladderRoutings {
			routing.apply(e)
			for _, rung := range ladderRungs {
				f := filter.MustParse(rung.key + "=1")
				mod := rung.mod
				matching := (ladderN + int(mod) - 1) / int(mod)
				before := e.TagStats()
				for qi, q := range qs {
					cell := ladderCell(mode.name, routing.name, rung.key, qi)
					s0 := e.TagStats().Scans
					rs, st, err := e.SearchFilteredStats(q, ladderK, f)
					if err != nil {
						t.Fatal(err)
					}
					if e.TagStats().Scans == s0 {
						if got := answerHash(rs, st); got != golden[cell] {
							t.Errorf("%s: beam answer %s differs from the parent's %s", cell, got, golden[cell])
						}
						continue
					}
					truth := bruteFiltered(ds, q, ladderK, func(id int64) bool { return id%mod == 0 })
					if !slices.Equal(rs, truth) {
						t.Errorf("%s: scan returned %v, brute force %v", cell, rs, truth)
					}
					if st != (index.Stats{DistComps: int64(matching)}) {
						t.Errorf("%s: scan stats %+v, want %d distance computations and nothing else", cell, st, matching)
					}
				}
				after := e.TagStats()
				scans, beams := after.Scans-before.Scans, after.Beams-before.Beams
				if scans+beams != int64(len(qs)) || (scans != 0 && beams != 0) {
					t.Errorf("%s/%s/%s: %d scans and %d beams over %d queries of one shape", mode.name, routing.name, rung.key, scans, beams, len(qs))
				}
				if got := after.Candidates - before.Candidates; got != int64(matching*len(qs)) {
					t.Errorf("%s/%s/%s: counted %d candidates, want %d", mode.name, routing.name, rung.key, got, matching*len(qs))
				}
				// The ends of the ladder must sit on opposite sides.
				if rung.mod >= 100 && beams != 0 {
					t.Errorf("%s/%s/%s ran the beam", mode.name, routing.name, rung.key)
				}
				if rung.mod == 1 && scans != 0 {
					t.Errorf("%s/%s/%s scanned every row", mode.name, routing.name, rung.key)
				}
			}
		}
	}
}

// TestFilteredScanShapes covers what the ladder does not: conjunctions,
// value sets with a missing member, unknown terms, k beyond the
// candidates, tags that arrive before their vector, and an ID revived
// by a re-add.
func TestFilteredScanShapes(t *testing.T) {
	const n = 3000
	ds := clustered(t, n, 12, 6, 31)
	e, err := NewEngine(ds, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	tagAll(e, n)
	q := ds.At(17)

	scan := func(expr string, k int, keep func(int64) bool, matching int) []topk.Result {
		t.Helper()
		before := e.TagStats()
		rs, st, err := e.SearchFilteredStats(q, k, filter.MustParse(expr))
		if err != nil {
			t.Fatal(err)
		}
		if e.TagStats().Scans != before.Scans+1 {
			t.Fatalf("%q did not take the scan", expr)
		}
		if st != (index.Stats{DistComps: int64(matching)}) {
			t.Fatalf("%q: stats %+v, want %d distance computations", expr, st, matching)
		}
		if truth := bruteFiltered(ds, q, k, keep); !slices.Equal(rs, truth) {
			t.Fatalf("%q: got %v, brute force %v", expr, rs, truth)
		}
		return rs
	}

	scan("t1=1 and t10=1", 10, func(id int64) bool { return id%100 == 0 }, n/100)
	scan("t10 in {1,absent}", 10, func(id int64) bool { return id%10 == 0 }, n/10)
	scan("t1 in {1} && t100=1", 10, func(id int64) bool { return id%100 == 0 }, n/100)
	for _, expr := range []string{"nokey=1", "t1=2", "t1=1 and nokey=1", "t1=1 and t1=2"} {
		if rs := scan(expr, 10, func(int64) bool { return false }, 0); len(rs) != 0 {
			t.Fatalf("%q returned %v", expr, rs)
		}
	}
	if rs := scan("t1=1", 100, func(id int64) bool { return id%100 == 0 }, n/100); len(rs) != n/100 {
		t.Fatalf("k beyond the candidates returned %d of %d", len(rs), n/100)
	}

	// Tags first, vector later: the ID is a candidate with nothing to
	// score until the vector lands.
	const late = int64(n + 5)
	e.SetTags(late, map[string]string{"late": "1"})
	if rs := scan("late=1", 5, func(int64) bool { return false }, 0); len(rs) != 0 {
		t.Fatalf("an ID without a vector was returned: %v", rs)
	}
	if err := e.Add(q, late); err != nil {
		t.Fatal(err)
	}
	rs, err := e.SearchFiltered(q, 5, filter.MustParse("late=1"))
	if err != nil || len(rs) != 1 || rs[0] != (topk.Result{ID: late, Dist: 0}) {
		t.Fatalf("late vector: %v, %v", rs, err)
	}

	// Delete hides the ID from the scan; a re-add revives it at the new
	// vector, and the stale row is not scored beside it.
	e.Delete(late)
	if rs := scan("late=1", 5, func(int64) bool { return false }, 0); len(rs) != 0 {
		t.Fatalf("tombstoned ID returned: %v", rs)
	}
	moved := append([]float32(nil), q...)
	moved[0] += 3
	if err := e.Add(moved, late); err != nil {
		t.Fatal(err)
	}
	before := e.TagStats().Scans
	rs, st, err := e.SearchFilteredStats(q, 5, filter.MustParse("late=1"))
	if err != nil || e.TagStats().Scans != before+1 || st.DistComps != 1 ||
		len(rs) != 1 || rs[0] != (topk.Result{ID: late, Dist: vec.L2Distance(q, moved)}) {
		t.Fatalf("revived ID: %v, %+v, %v", rs, st, err)
	}

	// Clearing the tags empties the postings again.
	e.SetTags(late, nil)
	if rs := scan("late=1", 5, func(int64) bool { return false }, 0); len(rs) != 0 {
		t.Fatalf("untagged ID returned: %v", rs)
	}
}

// TestFilteredExactLocals: the exact tree locals answer a selective
// filter in full. With the over-fetching post-filter they returned about
// one of the ten matching neighbors.
func TestFilteredExactLocals(t *testing.T) {
	const n = 4000
	ds := clustered(t, n, 12, 6, 41)
	keep := func(id int64) bool { return id%100 == 0 }
	for _, kind := range []string{"vp", "kd"} {
		for _, nprobe := range []int{2, 4} {
			cfg := DefaultConfig(4)
			cfg.LocalIndex, cfg.NProbe = kind, nprobe
			e, err := NewEngine(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tagAll(e, n)
			f := filter.MustParse("t1=1")
			for qi := 0; qi < 10; qi++ {
				q := ds.At(qi * 37)
				got, err := e.SearchFiltered(q, 10, f)
				if err != nil {
					t.Fatal(err)
				}
				if truth := bruteFiltered(ds, q, 10, keep); !slices.Equal(got, truth) {
					t.Fatalf("%s nprobe %d: got %v, brute force %v", kind, nprobe, got, truth)
				}
			}
			// The local itself, with no planner above it.
			_, parts := e.view()
			var lists [][]topk.Result
			for _, p := range parts {
				rs, _, err := p.SearchFiltered(ds.At(0), 10, keep, nil)
				if err != nil {
					t.Fatal(err)
				}
				lists = append(lists, rs)
			}
			if got, truth := topk.Merge(10, lists...), bruteFiltered(ds, ds.At(0), 10, keep); !slices.Equal(got, truth) {
				t.Fatalf("%s locals: got %v, brute force %v", kind, got, truth)
			}
		}
	}
}

// TestFilteredAllocCeiling pins the scan path's allocations: the
// compiled filter, the candidate walk and the per-partition row table
// come from the pooled scratch, so a query allocates the dataset views
// it scores from (one per partition touched), the result heap and its
// sorted copy, and the merge at the exit.
func TestFilteredAllocCeiling(t *testing.T) {
	const n = 4000
	ds := clustered(t, n, 16, 8, 51)
	e, err := NewEngine(ds, DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	tagAll(e, n)
	f := filter.MustParse("t1=1")
	q := ds.At(3)
	before := e.TagStats().Scans
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := e.SearchFilteredStats(q, 10, f); err != nil {
			t.Fatal(err)
		}
	})
	if e.TagStats().Scans-before < 200 {
		t.Fatal("the 1% filter did not take the scan")
	}
	// 8 views + scan (3) + merge (5) + result list header.
	const ceiling = 20
	if allocs > ceiling {
		t.Fatalf("scan path: %.0f allocations per query, ceiling %d", allocs, ceiling)
	}
	t.Logf("scan path: %.0f allocations per query (ceiling %d)", allocs, ceiling)
}

// ladderPath answers q one way regardless of the planner: the parts of
// SearchFilteredStats on either side of its decision.
func ladderPath(e *Engine, q []float32, k int, f *filter.Expr, scan bool) ([]topk.Result, index.Stats) {
	tree, parts := e.view()
	sc := planPool.Get().(*planScratch)
	defer sc.release()
	e.tags.compile(f, &sc.tf)
	if scan {
		rs, scored, ok := e.scanCandidates(q, k, sc, parts)
		if !ok {
			panic("scan gave up on a quiescent engine")
		}
		return topk.Merge(k, rs), index.Stats{DistComps: scored}
	}
	lists, total, err := e.beam(q, k, e.admit(sc.tf.match), tree, parts)
	if err != nil {
		panic(err)
	}
	return topk.Merge(k, lists...), total
}

// BenchmarkFilteredLadder is the measurement the planner's rule rests
// on: the benchmark corpus (10,000 sift-like points, 8 partitions), each
// rung of the selectivity ladder answered both ways at nprobe 2, at
// nprobe = all and under adaptive routing, with distance computations and recall@10 per query
// beside the time, and which way the planner would go ("picked" 1).
// DESIGN §10 carries the table; run it with `make bench-filter`.
func BenchmarkFilteredLadder(b *testing.B) {
	const n, nq, k = 10000, 256, 10
	ds, err := dataset.Named("sift", n, 1)
	if err != nil {
		b.Fatal(err)
	}
	queries := dataset.PerturbedQueries(ds, nq, 4, 2)
	for _, mode := range []struct {
		name   string
		mutate func(*Config)
	}{ladderModes[0], ladderModes[2]} {
		cfg := DefaultConfig(8)
		cfg.Seed = 1
		mode.mutate(&cfg)
		e, err := NewEngine(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for id := int64(0); id < n; id++ {
			e.SetTags(id, ladderTags(id))
		}
		for _, rung := range ladderRungs {
			f := filter.MustParse(rung.key + "=1")
			mod := rung.mod
			truth := make([][]topk.Result, nq)
			for i := range truth {
				truth[i] = bruteFiltered(ds, queries.At(i), k, func(id int64) bool { return id%mod == 0 })
			}
			for _, routing := range ladderRoutings {
				routing.apply(e)
				_, parts := e.view()
				picked := 0.0
				if e.scanBeatsBeam((n+int(mod)-1)/int(mod), parts, k) {
					picked = 1
				}
				for _, scan := range []bool{true, false} {
					path := "beam"
					if scan {
						path = "scan"
					}
					b.Run(fmt.Sprintf("%s/%s/%s/%s", mode.name, routing.name, rung.key, path), func(b *testing.B) {
						var dist int64
						var recall float64
						for i := 0; i < nq; i++ {
							rs, st := ladderPath(e, queries.At(i), k, f, scan)
							dist += st.DistComps + st.QuantComps
							recall += filteredRecall(rs, truth[i])
						}
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							ladderPath(e, queries.At(i%nq), k, f, scan)
						}
						b.ReportMetric(float64(dist)/nq, "dist/op")
						b.ReportMetric(recall/nq, "recall")
						if scan {
							b.ReportMetric(picked, "picked")
						} else {
							b.ReportMetric(1-picked, "picked")
						}
					})
				}
			}
		}
	}
}
