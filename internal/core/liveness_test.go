package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/hnsw"
	"repro/internal/topk"
	"repro/internal/vec"
)

// TestReupsertHidesOldRow upserts an existing ID far from where it was,
// tags it anew, and searches at its old vector: no read path may answer
// with the superseded row, whether the search is unfiltered, filtered by
// the new tags (through the candidate scan and through the beam) or the
// vector leg of hybrid search, on every serving layout. When an upsert
// only appended, the old row kept answering at distance 0 and matched
// the new tags, which are keyed by ID.
func TestReupsertHidesOldRow(t *testing.T) {
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
	dNew := vec.L2Distance(old, far)
	fresh := filter.MustParse("c=new")
	for _, mode := range ladderModes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.NProbe = 4
			mode.mutate(&cfg)
			e, err := NewEngine(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < n; i += 10 {
				e.SetTags(i, map[string]string{"c": "new"})
			}
			if err := e.Add(far, id); err != nil {
				t.Fatal(err)
			}
			e.SetTags(id, map[string]string{"c": "new"})
			check := func(path string, rs []topk.Result) {
				t.Helper()
				for _, r := range rs {
					if r.ID == id && r.Dist < dNew/2 {
						t.Errorf("%s: ID %d answered at distance %v from its superseded row; its live row is %v away", path, id, r.Dist, dNew)
					}
				}
			}
			rs, err := e.Search(old, k)
			if err != nil {
				t.Fatal(err)
			}
			check("Search", rs)
			if rs, err = e.SearchFiltered(old, k, fresh); err != nil {
				t.Fatal(err)
			}
			check("SearchFiltered", rs)
			for _, scan := range []bool{true, false} {
				rs, _ := ladderPath(e, old, k, fresh, scan)
				check(map[bool]string{true: "filtered scan", false: "filtered beam"}[scan], rs)
			}
			hs, err := e.SearchHybrid(old, "", k, HybridOptions{})
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

// TestHybridRescoresUpsertedVector: an upsert without text keeps the
// ID's document but moves its vector, and hybrid search re-scores its
// candidates against the vector the document holds. That vector must be
// the new one: before the upsert republished it, the fused hit came back
// at its distance from the old vector.
func TestHybridRescoresUpsertedVector(t *testing.T) {
	const id = 5
	ds, err := dataset.Named("sift", 2000, 71)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	old := ds.At(id)
	far := make([]float32, len(old))
	for i, x := range old {
		far[i] = x + 1000
	}
	e.SetText(id, "needle", old)
	if err := e.Add(far, id); err != nil {
		t.Fatal(err)
	}
	hs, err := e.SearchHybrid(far, "needle", 3, HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		if h.ID == id {
			if !h.HasDist || h.Dist != 0 {
				t.Fatalf("ID %d re-scored at %v (HasDist %v), want 0: the vector it was upserted with", id, h.Dist, h.HasDist)
			}
			if text, _ := e.Text(id); text != "needle" {
				t.Fatalf("the upsert changed the document's text to %q", text)
			}
			return
		}
	}
	t.Fatalf("the needle document is missing from %v", hs)
}

// TestSearchRacingSwapHidesDeleted deletes rows next to a query and
// compacts their partition while searches at the query run: no search
// that began after the deletes may return one of them, also not one that
// still holds the partition the swap replaced. When liveness was an ID
// set that the fold cleared, a search still walking the old partition
// admitted the folded IDs again.
func TestSearchRacingSwapHidesDeleted(t *testing.T) {
	const n, k, planted, rounds = 1000, 10, 8, 100
	ds := clustered(t, n, 8, 4, 91)
	cfg := DefaultConfig(4)
	cfg.NProbe = 4
	cfg.HNSW = hnsw.DefaultConfig(vec.L2)
	cfg.HNSW.EfConstruction = 40 // cheap rebuilds: many swaps per second
	e, err := NewEngine(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.At(0)
	home, err := e.Home(q)
	if err != nil {
		t.Fatal(err)
	}
	var (
		deadSeq atomic.Int64
		deadMu  sync.RWMutex
		deadAt  = map[int64]int64{} // id -> deadSeq once its Delete returned
		done    = make(chan struct{})
		wg      sync.WaitGroup
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				dead0 := deadSeq.Load()
				rs, err := e.Search(q, k)
				if err != nil {
					t.Error(err)
					return
				}
				deadMu.RLock()
				for _, r := range rs {
					if at, ok := deadAt[r.ID]; ok && at <= dead0 {
						t.Errorf("ID %d, deleted before the search began, came back: %v", r.ID, rs)
					}
				}
				deadMu.RUnlock()
				if t.Failed() {
					return
				}
			}
		}()
	}
	v := make([]float32, len(q))
	for round := 0; round < rounds && !t.Failed(); round++ {
		for i := 0; i < planted; i++ {
			copy(v, q)
			v[i%len(v)] += 0.001 * float32(i+1)
			id := int64(1_000_000 + round*planted + i)
			if err := e.AddAt(home, v, id, 0); err != nil {
				t.Fatal(err)
			}
			e.Delete(id)
			deadMu.Lock()
			deadAt[id] = deadSeq.Add(1)
			deadMu.Unlock()
		}
		compactForTest(t, e, home)
	}
	close(done)
	wg.Wait()
}
