package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/hnsw"
	"repro/internal/index"
	"repro/internal/topk"
	"repro/internal/vec"
)

// tagForID mirrors the tagging rule used by the golden tests: every id
// carries t100=1; ids divisible by 10 add t10=1; divisible by 100 add
// t1=1 — selectivities 1.0, 0.1 and 0.01 over sequential ids.
func tagForID(id int64) map[string]string {
	tags := map[string]string{"t100": "1"}
	if id%10 == 0 {
		tags["t10"] = "1"
	}
	if id%100 == 0 {
		tags["t1"] = "1"
	}
	return tags
}

func tagAll(e *Engine, n int) {
	for id := int64(0); id < int64(n); id++ {
		e.SetTags(id, tagForID(id))
	}
}

func bruteFiltered(ds *vec.Dataset, q []float32, k int, keep func(int64) bool) []topk.Result {
	c := topk.New(k)
	for i := 0; i < ds.Len(); i++ {
		if keep(ds.ID(i)) {
			c.Push(ds.ID(i), vec.L2Distance(q, ds.At(i)))
		}
	}
	return c.Results()
}

func filteredRecall(got, want []topk.Result) float64 {
	if len(want) == 0 {
		return 1
	}
	truth := make(map[int64]bool, len(want))
	for _, r := range want {
		truth[r.ID] = true
	}
	hit := 0
	for _, r := range got {
		if truth[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// TestEngineSearchFilteredGolden compares the engine's filter pushdown
// against exact brute-force-with-filter at selectivities {1.0, 0.1,
// 0.01}, in scalar, frozen, and frozen+SQ8 serving modes.
func TestEngineSearchFilteredGolden(t *testing.T) {
	const (
		n  = 6000
		k  = 10
		nq = 30
	)
	ds := clustered(t, n, 16, 10, 1)
	rng := rand.New(rand.NewSource(5))

	for _, mode := range []struct {
		name   string
		mutate func(cfg *Config)
		ef     int
	}{
		{"scalar", func(cfg *Config) {}, 256},
		{"frozen", func(cfg *Config) { cfg.Frozen = true; cfg.RerankK = -1 }, 256},
		{"frozen_sq8", func(cfg *Config) { cfg.Frozen = true; cfg.SQ8 = true; cfg.RerankK = 0 }, 256},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.NProbe = 4 // search everything: isolates traversal quality from routing
			mode.mutate(&cfg)
			e, err := NewEngine(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.SetEfSearch(mode.ef)
			tagAll(e, n)

			for _, tc := range []struct {
				expr string
				mod  int64
			}{
				{"t100=1", 1},
				{"t10=1", 10},
				{"t1=1", 100},
			} {
				f := filter.MustParse(tc.expr)
				keep := func(id int64) bool { return id%tc.mod == 0 }
				var sum float64
				for qi := 0; qi < nq; qi++ {
					q := ds.At(rng.Intn(n))
					truth := bruteFiltered(ds, q, k, keep)
					got, err := e.SearchFiltered(q, k, f)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range got {
						if r.ID%tc.mod != 0 {
							t.Fatalf("filter %q returned non-matching id %d", tc.expr, r.ID)
						}
					}
					sum += filteredRecall(got, truth)
				}
				if mean := sum / nq; mean < 0.95 {
					t.Errorf("%s filter %q: recall %.3f < 0.95", mode.name, tc.expr, mean)
				}
			}
		})
	}
}

// TestEngineFilteredVsPostFilter pins the acceptance property at the
// engine level: at 1% selectivity traversal-time filtering finds more
// valid neighbors than post-filtering the unfiltered top-k.
func TestEngineFilteredVsPostFilter(t *testing.T) {
	const (
		n  = 6000
		k  = 10
		nq = 30
	)
	ds := clustered(t, n, 16, 10, 2)
	cfg := DefaultConfig(4)
	cfg.NProbe = 4
	e, err := NewEngine(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetEfSearch(256)
	tagAll(e, n)
	f := filter.MustParse("t1=1")
	keep := func(id int64) bool { return id%100 == 0 }
	rng := rand.New(rand.NewSource(9))
	var push, post int
	for qi := 0; qi < nq; qi++ {
		q := ds.At(rng.Intn(n))
		truth := map[int64]bool{}
		for _, r := range bruteFiltered(ds, q, k, keep) {
			truth[r.ID] = true
		}
		got, err := e.SearchFiltered(q, k, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if truth[r.ID] {
				push++
			}
		}
		raw, err := e.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range raw {
			if keep(r.ID) && truth[r.ID] {
				post++
			}
		}
	}
	if push <= post {
		t.Fatalf("pushdown valid hits %d not better than post-filter %d", push, post)
	}
	t.Logf("valid hits over %d queries: pushdown=%d post-filter=%d", nq, push, post)
}

// TestFilteredSearchConcurrentMutation races filtered searches on both
// sides of the planner's cut-over ("t1=1" is scanned, "t100=1" runs the
// beam) against one writer that adds tagged points, deletes, rewrites
// tags, re-upserts one ID and compacts partitions, on the dynamic graph
// and on the frozen SQ8 layout. Run under -race in tier1.
//
// What every answer must satisfy, whatever it raced with:
//   - a set of pinned IDs whose vectors and tags never change, placed
//     so that they are the nearest matches of the pinned query, appears
//     in full in every answer to that query;
//   - no ID is returned twice, and none whose tags never satisfied the
//     filter at any time;
//   - no ID deleted before the query began is returned, also not by a
//     query that overlapped a partition swap: the partition it holds
//     keeps its dead rows dead;
//   - the re-upserted ID is reported at the distance of a vector at
//     least as new as the one current when the query began.
func TestFilteredSearchConcurrentMutation(t *testing.T) {
	for _, mode := range []struct {
		name   string
		mutate func(*Config)
	}{ladderModes[0], ladderModes[2]} {
		t.Run(mode.name, func(t *testing.T) { filteredChurn(t, mode.mutate) })
	}
}

func filteredChurn(t *testing.T, mutate func(*Config)) {
	const (
		n, dim, k = 2000, 12, 12
		pinned0   = int64(100000) // pinned IDs pinned0..pinned0+4
		mover     = int64(100100)
		added0    = int64(200000)
		rounds    = 160
	)
	ds := clustered(t, n, dim, 6, 3)
	// The pinned cluster sits on a base point, well inside the graph:
	// five points within a twentieth of the way to its nearest neighbor
	// (r), the mover approaching from r/2 in a dozen steps (few enough
	// that its stale rows do not crowd each other's link lists). With
	// the base point itself that is seven of the k nearest, whatever
	// else is added or deleted.
	const base = 7
	center := append([]float32(nil), ds.At(base)...)
	r := float32(math.MaxFloat32)
	for i := 0; i < n; i++ {
		if d := vec.L2Distance(center, ds.At(i)); i != base && d < r {
			r = d
		}
	}
	allTags := map[string]string{"t100": "1", "t10": "1", "t1": "1"}
	for i := 0; i < 5; i++ {
		v := append([]float32(nil), center...)
		v[i] += 0.01 * r * float32(i+1)
		ds.Append(v, pinned0+int64(i))
	}
	moverVec := func(ver int64) []float32 {
		v := append([]float32(nil), center...)
		v[dim-1] += r * (0.5 - 0.025*float32(ver))
		return v
	}
	ds.Append(moverVec(0), mover)
	everT1 := func(id int64) bool { return id >= pinned0 && id < added0 || id%100 == 0 }

	cfg := DefaultConfig(4)
	mutate(&cfg)
	e, err := NewEngine(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		if id := ds.ID(i); id < pinned0 {
			e.SetTags(id, tagForID(id))
		} else {
			e.SetTags(id, allTags)
		}
	}

	var (
		moverVer atomic.Int64 // newest version whose Add has returned
		deadSeq  atomic.Int64
		deadMu   sync.RWMutex
		deadAt   = map[int64]int64{} // id -> deadSeq after its Delete returned
		done     = make(chan struct{})
		wg       sync.WaitGroup
	)

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				expr, ever := "t100=1", func(int64) bool { return true }
				if (i+w)%2 == 0 {
					expr, ever = "t1=1", everT1
				}
				q, atCenter := center, i%3 != 0
				if !atCenter {
					q = ds.At(rng.Intn(n))
				}
				dead0, ver0 := deadSeq.Load(), moverVer.Load()
				rs, err := e.SearchFiltered(q, k, filter.MustParse(expr))
				if err != nil {
					t.Error(err)
					return
				}
				ver1 := moverVer.Load() + 1 // an Add may have landed without its store yet
				seen := map[int64]bool{}
				deadMu.RLock()
				for _, r := range rs {
					if seen[r.ID] {
						t.Errorf("%s: id %d returned twice", expr, r.ID)
					}
					seen[r.ID] = true
					if !ever(r.ID) {
						t.Errorf("%s: id %d never carried a matching tag", expr, r.ID)
					}
					if at, ok := deadAt[r.ID]; ok && at <= dead0 {
						t.Errorf("%s: id %d was deleted before the query began", expr, r.ID)
					}
					if r.ID == mover && atCenter {
						ok := false
						for ver := ver0; ver <= ver1 && !ok; ver++ {
							ok = r.Dist == vec.L2Distance(center, moverVec(ver))
						}
						if !ok {
							t.Errorf("%s: mover at distance %v, not one of versions %d..%d", expr, r.Dist, ver0, ver1)
						}
					}
				}
				deadMu.RUnlock()
				if atCenter {
					for i := int64(0); i < 5; i++ {
						if !seen[pinned0+i] {
							t.Errorf("%s: pinned id %d missing from %v", expr, pinned0+i, rs)
						}
					}
					if !seen[mover] {
						t.Errorf("%s: re-upserted id missing from %v", expr, rs)
					}
				}
				if t.Failed() {
					return
				}
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(42))
	v := make([]float32, dim)
	rewritten := map[int64]bool{}
	for i := 0; i < rounds && !t.Failed(); i++ {
		id := added0 + int64(i)
		copy(v, ds.At(base+1+rng.Intn(n-base-1)))
		v[rng.Intn(dim)] += rng.Float32()
		if err := e.Add(v, id); err != nil {
			t.Fatal(err)
		}
		e.SetTags(id, tagForID(id))
		if i%3 == 0 {
			id := int64(rng.Intn(n))
			e.Delete(id)
			deadMu.Lock()
			if _, ok := deadAt[id]; !ok {
				deadAt[id] = deadSeq.Add(1)
			}
			deadMu.Unlock()
		}
		if i%2 == 0 {
			// Strip the selective tags from a base point, or give them back.
			id := int64(rng.Intn(n))
			if rewritten[id] = !rewritten[id]; rewritten[id] {
				e.SetTags(id, map[string]string{"t100": "1", "rewritten": "yes"})
			} else {
				e.SetTags(id, tagForID(id))
			}
		}
		if i%20 == 0 {
			ver := moverVer.Load() + 1
			if err := e.Add(moverVec(ver), mover); err != nil {
				t.Fatal(err)
			}
			moverVer.Store(ver)
		}
		if i%40 == 39 {
			compactForTest(t, e, (i/40)%e.Partitions())
		}
	}
	close(done)
	wg.Wait()
	if st := e.TagStats(); st.Scans == 0 || st.Beams == 0 {
		t.Fatalf("the filters did not straddle the cut-over: %+v", st)
	}
}

// TestDeletedNearestNeighbors deletes a query's 50 nearest neighbors:
// every read path must still return the 10 nearest live rows, in every
// serving mode. With tombstones stripped after the merge, each partition
// was asked for k + min(tombstones, 3k) = 40 rows, all of them dead, and
// Search returned none.
func TestDeletedNearestNeighbors(t *testing.T) {
	const n, k, nDead = 2000, 10, 50
	ds, err := dataset.Named("sift", n, 71)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.At(17)
	dead := make(map[int64]bool, nDead)
	for _, r := range bruteFiltered(ds, q, nDead, func(int64) bool { return true }) {
		dead[r.ID] = true
	}
	truth := bruteFiltered(ds, q, k, func(id int64) bool { return !dead[id] })
	every := filter.MustParse("t100=1")
	for _, mode := range ladderModes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.NProbe = 4
			mode.mutate(&cfg)
			e, err := NewEngine(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tagAll(e, n)
			for id := range dead {
				e.Delete(id)
			}
			check := func(path string, got []topk.Result) {
				t.Helper()
				if !slices.Equal(got, truth) {
					t.Errorf("%s: got %v, brute force over the live rows %v", path, got, truth)
				}
			}
			rs, err := e.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			check("Search", rs)
			if rs, err = e.SearchFiltered(q, k, every); err != nil {
				t.Fatal(err)
			}
			check("SearchFiltered", rs)
			for _, scan := range []bool{true, false} {
				rs, _ := ladderPath(e, q, k, every, scan)
				check(map[bool]string{true: "filtered scan", false: "filtered beam"}[scan], rs)
			}
			hs, err := e.SearchHybrid(q, "", k, HybridOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rs = nil
			for _, h := range hs {
				rs = append(rs, topk.Result{ID: h.ID, Dist: h.Dist})
			}
			check("hybrid vector leg", rs)
		})
	}
}

// compactForTest rebuilds partition p without its dead rows and swaps
// it in, as the store's compactor does. The caller is the only writer.
func compactForTest(t *testing.T, e *Engine, p int) {
	t.Helper()
	g, ok := e.PartitionGraph(p)
	if !ok {
		t.Fatalf("partition %d has no graph", p)
	}
	rows := g.DataSnapshot()
	live := vec.NewDataset(rows.Dim, rows.Len())
	var kept []uint32
	for i := 0; i < rows.Len(); i++ {
		if !g.Dead().Has(i) {
			live.Append(rows.At(i), rows.ID(i))
			kept = append(kept, uint32(i))
		}
	}
	ng, _, err := hnsw.Build(live, g.Config(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapPartition(p, index.WrapHNSW(ng), kept); err != nil {
		t.Fatal(err)
	}
}

// TestNewEmptyEngine exercises the empty-engine lifecycle a fresh
// collection goes through: search-empty, add, tag, filtered search.
func TestNewEmptyEngine(t *testing.T) {
	e, err := NewEmptyEngine(8, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if e.Partitions() != 1 {
		t.Fatalf("empty engine has %d partitions, want 1", e.Partitions())
	}
	if e.Len() != 0 {
		t.Fatalf("empty engine Len=%d", e.Len())
	}
	q := make([]float32, 8)
	rs, err := e.Search(q, 3)
	if err != nil {
		t.Fatalf("searching empty engine: %v", err)
	}
	if len(rs) != 0 {
		t.Fatalf("empty engine returned %d results", len(rs))
	}

	rng := rand.New(rand.NewSource(1))
	v := make([]float32, 8)
	for id := int64(0); id < 200; id++ {
		for j := range v {
			v[j] = rng.Float32()
		}
		if err := e.Add(v, id); err != nil {
			t.Fatal(err)
		}
		e.SetTags(id, tagForID(id))
	}
	if e.Len() != 200 {
		t.Fatalf("Len=%d after 200 adds", e.Len())
	}
	rs, err = e.SearchFiltered(q, 5, filter.MustParse("t10=1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("filtered search on populated empty-born engine returned nothing")
	}
	for _, r := range rs {
		if r.ID%10 != 0 {
			t.Fatalf("non-matching id %d", r.ID)
		}
	}

	// Frozen empty engine must also be constructible and ingest via the
	// tail-scan path.
	cfg := DefaultConfig(1)
	cfg.Frozen = true
	fe, err := NewEmptyEngine(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range v {
		v[j] = 0.5
	}
	if err := fe.Add(v, 7); err != nil {
		t.Fatal(err)
	}
	rs, err = fe.Search(v, 1)
	if err != nil || len(rs) != 1 || rs[0].ID != 7 {
		t.Fatalf("frozen empty-born engine search = %v, %v", rs, err)
	}
}

// TestTagsLifecycle covers snapshot/restore and cleanup on rebuild.
func TestTagsLifecycle(t *testing.T) {
	ds := clustered(t, 500, 8, 4, 7)
	e, err := NewEngine(ds, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	e.SetTags(1, map[string]string{"a": "x"})
	e.SetTags(2, map[string]string{"b": "y"})
	if e.TagCount() != 2 {
		t.Fatalf("TagCount=%d", e.TagCount())
	}
	// Mutating the caller's map must not leak in.
	m := map[string]string{"c": "z"}
	e.SetTags(3, m)
	m["c"] = "mutated"
	if got := e.Tags(3)["c"]; got != "z" {
		t.Fatalf("Tags(3) = %q, want z", got)
	}
	// Clearing.
	e.SetTags(2, nil)
	if e.TagCount() != 2 {
		t.Fatalf("TagCount=%d after clear", e.TagCount())
	}
	snap := e.TagsSnapshot()
	if len(snap) != 2 || snap[1]["a"] != "x" {
		t.Fatalf("snapshot = %v", snap)
	}
	// Restore into a fresh engine.
	e2, err := NewEngine(ds, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	e2.RestoreTags(snap)
	if e2.TagCount() != 2 || e2.Tags(3)["c"] != "z" {
		t.Fatalf("restore lost tags: count=%d", e2.TagCount())
	}
	// Rebuild drops tombstoned ids' tags.
	e2.Delete(1)
	if err := e2.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if e2.Tags(1) != nil {
		t.Fatal("rebuild kept tags of a compacted-away id")
	}
	if e2.Tags(3)["c"] != "z" {
		t.Fatal("rebuild dropped tags of a live id")
	}
}
