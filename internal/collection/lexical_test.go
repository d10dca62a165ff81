package collection

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// TestLexicalGate: text upserts and hybrid searches require
// "lexical": true at create time.
func TestLexicalGate(t *testing.T) {
	r := testRegistry(t)
	plain, err := r.Create("plain", Config{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float32, 8)
	hello := "hello"
	if err := plain.Upsert(v, 1, store.Attrs{Text: &hello}); !errors.Is(err, ErrLexicalDisabled) {
		t.Fatalf("text upsert on non-lexical collection = %v, want ErrLexicalDisabled", err)
	}
	if _, err := plain.SearchHybrid(v, "hello", 5, core.HybridOptions{}); !errors.Is(err, ErrLexicalDisabled) {
		t.Fatalf("SearchHybrid on non-lexical collection = %v, want ErrLexicalDisabled", err)
	}
	if _, ok := plain.Varz()["lexical"]; ok {
		t.Fatal("non-lexical collection exposes a lexical varz section")
	}
}

// TestLexicalLifecycle: upsert text, hybrid search both fusion modes,
// varz counters, durable reopen through the registry.
func TestLexicalLifecycle(t *testing.T) {
	root := t.TempDir()
	r, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Create("docs", Config{Dim: 8, Lexical: true, BM25K1: 1.5, Stopwords: []string{"the"}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for id := int64(0); id < 30; id++ {
		text := "common document body"
		if id == 17 {
			text = "the zebra sighting"
		}
		if err := c.Upsert(randVec(rng, 8), id, store.Attrs{Text: &text}); err != nil {
			t.Fatal(err)
		}
	}
	// Stopwords from the config must apply.
	if got := c.Engine().SearchLexical("the", 5, nil); got != nil {
		t.Fatalf("configured stopword scored: %v", got)
	}
	q := randVec(rng, 8)
	rs, err := c.SearchHybrid(q, "zebra", 5, core.HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range rs {
		found = found || h.ID == 17
	}
	if !found {
		t.Fatalf("keyword doc missing from hybrid results: %+v", rs)
	}
	if _, err := c.SearchHybrid(q, "zebra", 5, core.HybridOptions{Fusion: core.FusionWeighted}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SearchHybrid(randVec(rng, 3), "zebra", 5, core.HybridOptions{}); err == nil {
		t.Fatal("dim-mismatched hybrid query accepted")
	}

	lz, ok := c.Varz()["lexical"].(map[string]any)
	if !ok {
		t.Fatal("lexical collection missing lexical varz section")
	}
	if lz["docs"] != 30 {
		t.Fatalf("varz docs = %v, want 30", lz["docs"])
	}
	if lz["hybrid_rrf"] != int64(1) || lz["hybrid_weighted"] != int64(1) {
		t.Fatalf("hybrid counters = %v / %v, want 1 / 1", lz["hybrid_rrf"], lz["hybrid_weighted"])
	}
	if lz["k1"] != 1.5 {
		t.Fatalf("varz k1 = %v, want 1.5", lz["k1"])
	}

	want, err := c.SearchHybrid(q, "zebra common", 5, core.HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Reopen: config (k1, stopwords) and the whole index must come back.
	r2, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(context.Background())
	c2, err := r2.Get("docs")
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Config().Lexical || c2.Config().BM25K1 != 1.5 {
		t.Fatalf("lexical config lost on reopen: %+v", c2.Config())
	}
	if got := c2.Engine().SearchLexical("the", 5, nil); got != nil {
		t.Fatalf("stopword scored after reopen: %v", got)
	}
	got, err := c2.SearchHybrid(q, "zebra common", 5, core.HybridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("hybrid results changed across reopen: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("hybrid result %d changed across reopen: %+v vs %+v", i, got[i], want[i])
		}
	}
}
