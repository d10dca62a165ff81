package serve

import (
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/hnsw"
)

// TestVarzFrozenSection: once the engine is frozen, /varz grows a
// "frozen" section with the arena footprint and quantized-work counters
// the operator tunes -ef/-rerank-k against.
func TestVarzFrozenSection(t *testing.T) {
	e := testEngine(t)
	b := &EngineBackend{Engine: e}
	if v := b.Varz(); v["frozen"] != nil {
		t.Fatal("frozen section present before freezing")
	}
	if err := e.Freeze(hnsw.FreezeOptions{SQ8: true}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5; i++ {
		if _, err := e.Search(randQuery(rng, 8), 10); err != nil {
			t.Fatal(err)
		}
	}
	v := b.Varz()
	fz, ok := v["frozen"].(map[string]any)
	if !ok {
		t.Fatalf("no frozen varz section: %v", v)
	}
	if fz["partitions"].(int) != 4 || fz["sq8"].(bool) != true {
		t.Errorf("frozen shape: %v", fz)
	}
	if fz["arena_bytes"].(int64) <= 0 {
		t.Errorf("arena_bytes = %v", fz["arena_bytes"])
	}
	if fz["searches"].(int64) == 0 || fz["quant_scans"].(int64) == 0 || fz["reranked"].(int64) == 0 {
		t.Errorf("work counters flat: %v", fz)
	}
	rr := fz["rerank_ratio"].(float64)
	if rr <= 0 || rr >= 1 {
		t.Errorf("rerank_ratio = %v, want in (0,1)", rr)
	}
}

// TestVarzLexicalWork: the single-node lexical section carries the BM25
// leg's work counter next to its search count, so postings per search
// can be read off a running server.
func TestVarzLexicalWork(t *testing.T) {
	e := testEngine(t)
	b := &EngineBackend{Engine: e, Lexical: true}
	for id := int64(0); id < 30; id++ {
		text := "common"
		if id%3 == 0 {
			text = "common rare"
		}
		e.SetText(id, text, nil)
	}
	e.SearchLexical("common rare", 5, nil) // 30 + 10 postings
	e.SearchLexical("rare", 5, nil)        // 10
	lz := b.Varz()["lexical"].(map[string]any)
	if lz["searches"].(int64) != 2 || lz["postings_scanned"].(int64) != 50 {
		t.Fatalf("lexical varz: %v", lz)
	}
}

// TestVarzFilterPlanner: the engine section says what the tag store
// holds and, per decision, what the filter planner did with it — the
// numbers behind "why was this filtered query slow".
func TestVarzFilterPlanner(t *testing.T) {
	e := testEngine(t) // 400 points, 4 partitions, nprobe 2
	b := &EngineBackend{Engine: e}
	ez := b.Varz()["engine"].(map[string]any)
	if ez["tag_terms"].(int) != 0 || ez["tag_postings"].(int64) != 0 || ez["filtered_scans"].(int64) != 0 {
		t.Fatalf("untagged engine varz: %v", ez)
	}
	for id := int64(0); id < 400; id++ {
		tags := map[string]string{"all": "1"}
		if id%50 == 0 {
			tags["rare"] = "1"
		}
		e.SetTags(id, tags)
	}
	q := make([]float32, 8)
	for _, expr := range []string{"rare=1", "rare=1", "all=1"} {
		if _, err := e.SearchFiltered(q, 5, filter.MustParse(expr)); err != nil {
			t.Fatal(err)
		}
	}
	ez = b.Varz()["engine"].(map[string]any)
	if ez["tag_terms"].(int) != 2 || ez["tag_postings"].(int64) != 408 ||
		ez["filtered_scans"].(int64) != 2 || ez["filtered_beams"].(int64) != 1 ||
		ez["filtered_candidates"].(int64) != 8+8+400 {
		t.Fatalf("engine varz: %v", ez)
	}
}
