package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/hnsw"
	"repro/internal/index"
	"repro/internal/vec"
)

var errOutOfOrder = errors.New("results out of distance order")

func freezeDataset(seed int64, n, dim int) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := vec.NewDataset(dim, n)
	v := make([]float32, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		ds.Append(v, int64(i))
	}
	return ds
}

func freezeQueries(seed int64, n, dim int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float32, n)
	for i := range qs {
		q := make([]float32, dim)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		qs[i] = q
	}
	return qs
}

// goldenData returns TestFrozenGoldenRecall's 4,000 rows and nq queries
// at dim: Gaussian rows and queries, except at dim 128, where the rows
// are the SIFT stand-in and the queries perturbed copies of its points,
// the generator the serving benchmark draws its workload from.
func goldenData(t *testing.T, dim, nq int) (*vec.Dataset, [][]float32) {
	if dim != 128 {
		return freezeDataset(int64(dim), 4000, dim), freezeQueries(int64(dim)+99, nq, dim)
	}
	ds, err := dataset.Named("sift", 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := dataset.PerturbedQueries(ds, nq, 4, 2)
	queries := make([][]float32, nq)
	for i := range queries {
		queries[i] = qs.At(i)
	}
	return ds, queries
}

// TestFrozenGoldenRecall is the recall-regression golden harness: the
// same engine answers the same queries scalar (dynamic float32 HNSW),
// then frozen+SQ8 with a swept re-rank budget, and the quantized path's
// recall@10 against the scalar reference must stay within epsilon.
// Each scalar result the quantized path drops costs at most one true
// hit, so overlap >= 1-epsilon also bounds frozen_sq8's recall against
// brute-force truth to at least scalar's minus epsilon: the dim-128 row
// is the serving gate "SQ8 within one point of scalar".
// RerankK = -1 (the ∞/exact setting) must be bit-identical to the
// scalar path — same IDs, same distances, same order.
func TestFrozenGoldenRecall(t *testing.T) {
	const k, nq = 10, 60
	cases := []struct {
		dim, m, ef, rerankK int
		epsilon             float64
	}{
		{8, 8, 40, 0, 0.05},
		{16, 16, 60, 40, 0.05},
		{24, 16, 100, 100, 0.03},
		{32, 24, 120, 0, 0.05},
		// The serving gate: SIFT-like rows (goldenData), the default
		// HNSW M and ef, the default re-rank, within one point of scalar.
		{128, 16, 64, 0, 0.01},
	}
	for _, tc := range cases {
		ds, queries := goldenData(t, tc.dim, nq)
		cfg := DefaultConfig(4)
		cfg.K = k
		cfg.Seed = int64(tc.m)
		cfg.HNSW = hnsw.DefaultConfig(vec.L2)
		cfg.HNSW.M = tc.m
		e, err := NewEngine(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetEfSearch(tc.ef)

		scalar := make([][]int64, nq)
		for i, q := range queries {
			rs, err := e.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int64, len(rs))
			for j, r := range rs {
				ids[j] = r.ID
			}
			scalar[i] = ids
		}

		if err := e.Freeze(hnsw.FreezeOptions{SQ8: true, RerankK: tc.rerankK}); err != nil {
			t.Fatal(err)
		}
		hits, total := 0, 0
		var quantWork int64
		for i, q := range queries {
			rs, st, err := e.SearchStats(q, k)
			if err != nil {
				t.Fatal(err)
			}
			quantWork += st.QuantComps
			in := make(map[int64]bool, len(scalar[i]))
			for _, id := range scalar[i] {
				in[id] = true
			}
			for _, r := range rs {
				if in[r.ID] {
					hits++
				}
			}
			total += len(scalar[i])
		}
		if quantWork == 0 {
			t.Fatalf("dim=%d M=%d: frozen_sq8 did no quantized scans", tc.dim, tc.m)
		}
		recall := float64(hits) / float64(total)
		if recall < 1-tc.epsilon {
			t.Errorf("dim=%d M=%d ef=%d rerankK=%d: frozen_sq8 recall@%d vs scalar = %.4f, want >= %.4f",
				tc.dim, tc.m, tc.ef, tc.rerankK, k, recall, 1-tc.epsilon)
		}

		// rerank_k = ∞: quantization off, bit-identical to scalar.
		e.SetRerankK(-1)
		for i, q := range queries {
			rs, st, err := e.SearchStats(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if st.QuantComps != 0 {
				t.Fatalf("rerankK=-1 still scanned codes: %+v", st)
			}
			if len(rs) != len(scalar[i]) {
				t.Fatalf("dim=%d query %d: %d results, want %d", tc.dim, i, len(rs), len(scalar[i]))
			}
			for j, r := range rs {
				if r.ID != scalar[i][j] {
					t.Fatalf("dim=%d M=%d query %d rank %d: frozen-exact ID %d != scalar %d",
						tc.dim, tc.m, i, j, r.ID, scalar[i][j])
				}
			}
		}
	}
}

// TestFrozenModeSurvivesSwapAndRebuild: with frozen mode on, a
// compaction-style SwapPartition installs a re-frozen partition, and
// Rebuild keeps every partition frozen.
func TestFrozenModeSurvivesSwapAndRebuild(t *testing.T) {
	ds := freezeDataset(21, 2000, 8)
	cfg := DefaultConfig(4)
	cfg.Seed = 21
	cfg.Frozen, cfg.SQ8 = true, true
	e, err := NewEngine(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fi, ok := e.FrozenInfo()
	if !ok || fi.Partitions != 4 || !fi.Quantized {
		t.Fatalf("cfg.Frozen did not freeze the build: %+v ok=%v", fi, ok)
	}
	if opts, on := e.FrozenMode(); !on || !opts.SQ8 {
		t.Fatalf("frozen mode not on: %+v %v", opts, on)
	}

	// Compaction-style swap: rebuild partition 0 from its own contents
	// and install it as a plain HNSW local — the engine must re-freeze it.
	g, ok := e.PartitionGraph(0)
	if !ok {
		t.Fatal("no partition graph")
	}
	pds := g.DataSnapshot()
	ng, _, err := hnsw.Build(pds, hnsw.DefaultConfig(vec.L2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapPartition(0, index.WrapHNSW(ng), allRows(pds.Len())); err != nil {
		t.Fatal(err)
	}
	if fi, _ := e.FrozenInfo(); fi.Partitions != 4 {
		t.Fatalf("swap dropped a frozen partition: %+v", fi)
	}

	if err := e.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if fi, _ := e.FrozenInfo(); fi.Partitions != 4 {
		t.Fatalf("rebuild dropped frozen partitions: %+v", fi)
	}

	e.Unfreeze()
	if _, on := e.FrozenMode(); on {
		t.Fatal("still frozen after Unfreeze")
	}
	if _, ok := e.FrozenInfo(); ok {
		t.Fatal("frozen info still reported after Unfreeze")
	}
	if _, err := e.Search(make([]float32, 8), 5); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeDuringTraffic hammers a frozen engine with concurrent
// searches, inserts, compaction-style partition swaps, and re-freezes.
// Run under -race this is the "no torn arena" gate: a search must only
// ever see a complete frozen view or the dynamic graph, never a mix.
func TestFreezeDuringTraffic(t *testing.T) {
	ds := freezeDataset(31, 3000, 8)
	cfg := DefaultConfig(4)
	cfg.Seed = 31
	cfg.Frozen, cfg.SQ8 = true, true
	e, err := NewEngine(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const searchers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, searchers+2)

	for w := 0; w < searchers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			q := make([]float32, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := range q {
					q[j] = float32(rng.NormFloat64())
				}
				rs, err := e.Search(q, 10)
				if err != nil {
					errCh <- err
					return
				}
				for i := 1; i < len(rs); i++ {
					if rs[i].Dist < rs[i-1].Dist {
						errCh <- errOutOfOrder
						return
					}
				}
			}
		}(int64(100 + w))
	}

	// Ingest: appends grow the dynamic graphs under the frozen views and
	// periodically trip background re-freezes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		v := make([]float32, 8)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			if err := e.Add(v, int64(10_000+i)); err != nil {
				errCh <- err
				return
			}
		}
	}()

	// Compactor: rebuild a partition from its live contents and swap it
	// in, over and over — each swap re-freezes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := i % 4
			g, ok := e.PartitionGraph(p)
			if !ok {
				continue
			}
			pds := g.DataSnapshot()
			ng, _, err := hnsw.Build(pds, hnsw.DefaultConfig(vec.L2), 1)
			if err != nil {
				errCh <- err
				return
			}
			if err := e.SwapPartition(p, index.WrapHNSW(ng), allRows(pds.Len())); err != nil {
				errCh <- err
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case err := <-errCh:
		close(stop)
		<-done
		t.Fatal(err)
	case <-time.After(1500 * time.Millisecond):
		close(stop)
		<-done
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	fi, ok := e.FrozenInfo()
	if !ok || fi.Searches == 0 {
		t.Fatalf("frozen path unexercised: %+v ok=%v", fi, ok)
	}
}

// allRows is the kept list of a rebuild that carries every row over.
func allRows(n int) []uint32 {
	kept := make([]uint32, n)
	for i := range kept {
		kept[i] = uint32(i)
	}
	return kept
}
