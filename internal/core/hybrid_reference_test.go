package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/fusion"
)

// referenceSearchHybrid is SearchHybrid as it stood when it kept its
// candidates in two maps and the lexical predicate took the tombstone
// lock per posting; the body is that version's, verbatim.
func referenceSearchHybrid(e *Engine, q []float32, text string, k int, opts HybridOptions) ([]HybridResult, error) {
	if err := opts.fill(k); err != nil {
		return nil, err
	}
	if k <= 0 {
		k = e.cfg.K
	}
	lexAllow := func(f *filter.Expr) func(int64) bool {
		keep := e.FilterPredicate(f)
		return func(id int64) bool {
			if e.Deleted(id) {
				return false
			}
			return keep == nil || keep(id)
		}
	}

	lex := e.lexIndex()
	dist := e.cfg.Metric.Func()

	var vecLeg []fusion.Candidate
	exact := make(map[int64]float32)
	if len(q) != 0 {
		rs, err := e.SearchFiltered(q, opts.LegK, opts.Filter)
		if err != nil {
			return nil, err
		}
		vecLeg = make([]fusion.Candidate, 0, len(rs))
		for _, r := range rs {
			d := r.Dist
			if v, ok := lex.Vector(r.ID); ok && len(v) == len(q) {
				d = dist(q, v)
			}
			exact[r.ID] = d
			vecLeg = append(vecLeg, fusion.Candidate{ID: r.ID, Score: -float64(d)})
		}
		fusion.Sort(vecLeg)
	}

	var lexLeg []fusion.Candidate
	bm25 := make(map[int64]float64)
	if text != "" {
		scored := lex.Search(text, opts.LegK, lexAllow(opts.Filter))
		lexLeg = make([]fusion.Candidate, 0, len(scored))
		for _, s := range scored {
			bm25[s.ID] = s.Score
			lexLeg = append(lexLeg, fusion.Candidate{ID: s.ID, Score: s.Score})
			if len(q) != 0 {
				if _, ok := exact[s.ID]; !ok {
					if v, ok := lex.Vector(s.ID); ok && len(v) == len(q) {
						exact[s.ID] = dist(q, v)
					}
				}
			}
		}
	}

	var fused []fusion.Candidate
	if opts.Fusion == FusionWeighted {
		fused = fusion.WeightedMinMax([]float64{opts.VecWeight, opts.LexWeight}, k, vecLeg, lexLeg)
	} else {
		fused = fusion.RRF(opts.RRFK, k, vecLeg, lexLeg)
	}
	out := make([]HybridResult, len(fused))
	for i, c := range fused {
		r := HybridResult{ID: c.ID, Score: c.Score, BM25: bm25[c.ID]}
		if d, ok := exact[c.ID]; ok && len(q) != 0 {
			r.Dist, r.HasDist = d, true
		}
		out[i] = r
	}
	return out, nil
}

// TestSearchHybridMatchesReference holds SearchHybrid to the reference
// bit for bit — fused score, BM25 score, exact distance — for both
// fusion modes, with and without a filter, before and after deletes,
// on a corpus where some documents have text and no stored vector,
// some a vector and no text, and the legs overlap only in part.
func TestSearchHybridMatchesReference(t *testing.T) {
	const dim, n = 8, 400
	e, err := NewEmptyEngine(dim, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	words := []string{"amber", "basalt", "cedar", "delta", "ember", "fjord"}
	randVec := func() []float32 {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		return v
	}
	for id := int64(0); id < n; id++ {
		v := randVec()
		if err := e.Add(v, id); err != nil {
			t.Fatal(err)
		}
		e.SetTags(id, map[string]string{"par": []string{"even", "odd"}[id%2]})
		text := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		switch id % 5 {
		case 0: // vector only
		case 1:
			e.SetText(id, text, nil) // text whose vector the index was not given
		default:
			e.SetText(id, text, v)
		}
	}
	e.SetText(n+1, "needle amber", randVec()) // a document the vector leg cannot surface

	optsList := []HybridOptions{
		{},
		{Fusion: FusionWeighted, VecWeight: 0.3, LexWeight: 0.7},
		{Filter: filter.MustParse("par=odd")},
		{Fusion: FusionWeighted, Filter: filter.MustParse("par=even"), LegK: 7},
	}
	check := func(phase string) {
		t.Helper()
		for qi := 0; qi < 12; qi++ {
			q := randVec()
			text := words[qi%len(words)] + " " + words[(qi*5+1)%len(words)]
			if qi == 3 {
				text = "needle"
			}
			for oi, opts := range optsList {
				for _, legs := range []struct {
					q    []float32
					text string
				}{{q, text}, {nil, text}, {q, ""}} {
					for _, k := range []int{3, 10, 60} {
						got, err1 := e.SearchHybrid(legs.q, legs.text, k, opts)
						want, err2 := referenceSearchHybrid(e, legs.q, legs.text, k, opts)
						if err1 != nil || err2 != nil {
							t.Fatalf("%s: errors %v / %v", phase, err1, err2)
						}
						if len(got) != len(want) {
							t.Fatalf("%s opts %d query %d k %d: %d results, want %d", phase, oi, qi, k, len(got), len(want))
						}
						for i := range got {
							g, w := got[i], want[i]
							if g.ID != w.ID || g.HasDist != w.HasDist ||
								math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
								math.Float64bits(g.BM25) != math.Float64bits(w.BM25) ||
								math.Float32bits(g.Dist) != math.Float32bits(w.Dist) {
								t.Fatalf("%s opts %d query %d k %d rank %d: %+v, want %+v", phase, oi, qi, k, i, g, w)
							}
						}
					}
				}
			}
		}
	}
	check("loaded")
	for id := int64(0); id < n; id += 7 {
		e.Delete(id)
	}
	check("with tombstones")
}
