package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/fusion"
	"repro/internal/lexical"
	"repro/internal/metrics"
	"repro/internal/topk"
	"repro/internal/vec"
)

// hybridEngine builds an empty-born engine with 60 vectors, text on
// every third document, and tags for filter tests.
func hybridEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEmptyEngine(8, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for id := int64(0); id < 60; id++ {
		v := make([]float32, 8)
		for j := range v {
			v[j] = rng.Float32()
		}
		if err := e.Add(v, id); err != nil {
			t.Fatal(err)
		}
		e.SetTags(id, map[string]string{"par": map[bool]string{true: "even", false: "odd"}[id%2 == 0]})
		if id%3 == 0 {
			text := "common corpus token"
			if id == 42 {
				text = "rare needle token"
			}
			e.SetText(id, text, v)
		}
	}
	return e
}

func TestSearchHybridLegs(t *testing.T) {
	e := hybridEngine(t)
	q := make([]float32, 8)
	for j := range q {
		q[j] = 0.4
	}

	// Both legs present: the keyword-only document must surface even if
	// the vector leg alone would miss it.
	rs, err := e.SearchHybrid(q, "needle", 5, HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rs {
		if r.ID == 42 {
			found = true
			if r.BM25 <= 0 {
				t.Fatalf("lexical hit carries BM25=%v", r.BM25)
			}
			if !r.HasDist {
				t.Fatal("lexical-only candidate missing exact distance re-score")
			}
		}
	}
	if !found {
		t.Fatalf("keyword-only doc 42 missing from hybrid results: %+v", rs)
	}

	// Text-only query: pure BM25 ranking, no distances.
	rs, err = e.SearchHybrid(nil, "common corpus", 5, HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("text-only hybrid returned nothing")
	}
	for _, r := range rs {
		if r.HasDist {
			t.Fatalf("text-only query reported a distance: %+v", r)
		}
	}

	// Vector-only query through the hybrid path still works.
	rs, err = e.SearchHybrid(q, "", 5, HybridOptions{})
	if err != nil || len(rs) != 5 {
		t.Fatalf("vector-only hybrid = %d results, %v", len(rs), err)
	}

	// No legs at all is a usage error.
	if _, err := e.SearchHybrid(nil, "", 5, HybridOptions{}); err == nil {
		t.Fatal("hybrid search with no legs succeeded")
	}
	// Dim mismatch is a usage error.
	if _, err := e.SearchHybrid(make([]float32, 3), "x", 5, HybridOptions{}); err == nil {
		t.Fatal("hybrid search with wrong dim succeeded")
	}
	// Unknown fusion mode is a usage error.
	if _, err := e.SearchHybrid(q, "x", 5, HybridOptions{Fusion: "borda"}); err == nil {
		t.Fatal("unknown fusion mode accepted")
	}
}

// TestSearchHybridKeywordSkewed is the hybrid serving gate: on the SIFT
// stand-in with 4–8 common words per document, one query in five asks
// for a unique token planted on a document outside its exact vector
// leg, so only the lexical leg can find it. Exact fused truth is the
// brute-force vector leg and the BM25 leg fused the same way at the
// same depth; under either fusion the engine's fused recall@10 against
// it must exceed 0.5 and strictly exceed vector-only search's.
func TestSearchHybridKeywordSkewed(t *testing.T) {
	const n, nq, k = 3000, 100, 10
	ds, err := dataset.Named("sift", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := dataset.PerturbedQueries(ds, nq, 4, 2)
	var opts HybridOptions
	if err := opts.fill(k); err != nil {
		t.Fatal(err)
	}
	vecLegs := bruteforce.SearchBatch(ds, qs, opts.LegK, vec.L2)

	vocab := []string{"amber", "basalt", "cedar", "delta", "ember", "fjord", "garnet",
		"harbor", "indigo", "juniper", "krill", "lumen", "marble", "nectar"}
	rng := rand.New(rand.NewSource(7))
	word := func() string { return vocab[rng.Intn(len(vocab))] }
	texts := make([]string, n)
	for i := range texts {
		texts[i] = word()
		for j := 4 + rng.Intn(5); j > 1; j-- {
			texts[i] += " " + word()
		}
	}
	qtexts := make([]string, nq)
	for i := range qtexts {
		if i%5 != 0 {
			qtexts[i] = word() + " " + word()
			continue
		}
		near := make(map[int64]bool, len(vecLegs[i]))
		for _, r := range vecLegs[i] {
			near[r.ID] = true
		}
		pos := (i*7919 + 12345) % n
		for near[ds.ID(pos)] {
			pos = (pos + 1) % n
		}
		qtexts[i] = "needle" + strconv.Itoa(i)
		texts[pos] += " " + qtexts[i]
	}

	e, err := NewEngine(ds, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	lex := lexical.NewIndex(lexical.Config{})
	for i := 0; i < n; i++ {
		e.SetText(ds.ID(i), texts[i], ds.At(i))
		lex.Set(ds.ID(i), texts[i], nil)
	}
	vecOnly := make([][]topk.Result, nq)
	for i := range vecOnly {
		if vecOnly[i], err = e.Search(qs.At(i), k); err != nil {
			t.Fatal(err)
		}
	}

	for _, mode := range []string{FusionRRF, FusionWeighted} {
		truth := make([][]int32, nq)
		fused := make([][]topk.Result, nq)
		for i := range truth {
			vl := make([]fusion.Candidate, len(vecLegs[i]))
			for j, r := range vecLegs[i] {
				vl[j] = fusion.Candidate{ID: r.ID, Score: -float64(r.Dist)}
			}
			fusion.Sort(vl)
			var ll []fusion.Candidate
			for _, s := range lex.Search(qtexts[i], opts.LegK, nil) {
				ll = append(ll, fusion.Candidate{ID: s.ID, Score: s.Score})
			}
			var cs []fusion.Candidate
			if mode == FusionWeighted {
				cs = fusion.WeightedMinMax([]float64{opts.VecWeight, opts.LexWeight}, k, vl, ll)
			} else {
				cs = fusion.RRF(opts.RRFK, k, vl, ll)
			}
			for _, c := range cs {
				truth[i] = append(truth[i], int32(c.ID))
			}

			hs, err := e.SearchHybrid(qs.At(i), qtexts[i], k, HybridOptions{Fusion: mode})
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hs {
				fused[i] = append(fused[i], topk.Result{ID: h.ID, Dist: h.Dist})
			}
		}
		got, base := metrics.MeanRecall(fused, truth), metrics.MeanRecall(vecOnly, truth)
		if got <= 0.5 || got <= base {
			t.Errorf("%s: fused recall@%d %.4f, vector-only %.4f: want above 0.5 and above vector-only",
				mode, k, got, base)
		}
		t.Logf("%s: fused recall@%d %.4f, vector-only %.4f", mode, k, got, base)
	}
}

func TestSearchHybridFilterAndTombstones(t *testing.T) {
	e := hybridEngine(t)
	q := make([]float32, 8)

	// Doc 42 is even; an odd-only filter must exclude it from both legs.
	rs, err := e.SearchHybrid(q, "needle common", 10, HybridOptions{Filter: filter.MustParse("par=odd")})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.ID%2 == 0 {
			t.Fatalf("even doc %d passed odd-only filter", r.ID)
		}
	}

	// A deleted document never scores on the lexical leg, and once a
	// compaction folds its dead row the document is gone with it.
	e.Delete(42)
	for _, stage := range []string{"deleted", "folded"} {
		if stage == "folded" {
			for p := 0; p < e.Partitions(); p++ {
				compactForTest(t, e, p)
			}
			if _, ok := e.Text(42); ok || e.Tombstones() != 0 {
				t.Fatal("compaction left the dead row or its document")
			}
		}
		rs, err = e.SearchHybrid(nil, "needle", 10, HybridOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.ID == 42 {
				t.Fatalf("%s: deleted doc scored on the text-only hybrid search", stage)
			}
		}
		for _, s := range e.SearchLexical("needle", 10, nil) {
			if s.ID == 42 {
				t.Fatalf("%s: deleted doc scored on SearchLexical", stage)
			}
		}
	}
}

func TestSearchHybridFusionModes(t *testing.T) {
	e := hybridEngine(t)
	q := make([]float32, 8)
	for j := range q {
		q[j] = 0.4
	}
	rrf, err := e.SearchHybrid(q, "common corpus", 5, HybridOptions{Fusion: FusionRRF})
	if err != nil {
		t.Fatal(err)
	}
	wtd, err := e.SearchHybrid(q, "common corpus", 5, HybridOptions{Fusion: FusionWeighted, VecWeight: 0.3, LexWeight: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rrf) == 0 || len(wtd) == 0 {
		t.Fatalf("fusion modes returned %d / %d results", len(rrf), len(wtd))
	}
	// Same query twice must reproduce exactly (determinism).
	again, err := e.SearchHybrid(q, "common corpus", 5, HybridOptions{Fusion: FusionRRF})
	if err != nil || !reflect.DeepEqual(rrf, again) {
		t.Fatalf("hybrid search is not reproducible: %v", err)
	}
}

func TestSetLexicalConfigLifecycle(t *testing.T) {
	e, err := NewEmptyEngine(8, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetLexicalConfig(lexical.Config{Stopwords: lexical.DefaultStopwords}); err != nil {
		t.Fatal(err)
	}
	v := make([]float32, 8)
	if err := e.Add(v, 1); err != nil {
		t.Fatal(err)
	}
	e.SetText(1, "the quick fox", v)
	if got := e.SearchLexical("the", 5, nil); got != nil {
		t.Fatalf("stopword scored: %v", got)
	}
	if got := e.SearchLexical("quick", 5, nil); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("content term missing: %v", got)
	}
	// Reconfiguring a populated index must be refused.
	if err := e.SetLexicalConfig(lexical.Config{}); err == nil {
		t.Fatal("SetLexicalConfig succeeded on a populated index")
	}
}

func TestTextsSnapshotRestoreDump(t *testing.T) {
	e := hybridEngine(t)
	var want bytes.Buffer
	if err := e.LexicalDump(&want); err != nil {
		t.Fatal(err)
	}
	snap := e.TextsSnapshot()

	e2, err := NewEmptyEngine(8, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	e2.RestoreTexts(snap)
	var got bytes.Buffer
	if err := e2.LexicalDump(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("restored dump diverges:\n%s---\n%s", got.String(), want.String())
	}
	if e2.TextCount() != e.TextCount() {
		t.Fatalf("TextCount %d != %d", e2.TextCount(), e.TextCount())
	}
}
