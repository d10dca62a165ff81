package lexical

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// refIndex is the index as it stood before postings carried ordinals:
// int64 IDs in the postings, a sync.Map lookup per posting, a map
// accumulator and a full sort. Its Search body is that version's,
// verbatim; the tests below hold Index.Search to it bit for bit.
type refIndex struct {
	cfg Config
	tok *Index // tokenizer + stopword filter only
	ver uint64

	postings sync.Map // string -> *refPostingList
	docs     sync.Map // int64 -> *refDocEntry

	ndocs, totalTok int64
}

type refPosting struct {
	id  int64
	ver uint64
	tf  uint32
}

type refPostingList struct{ entries []refPosting }

type refDocEntry struct {
	ver    uint64
	tokens int
	text   string
}

func newRefIndex(cfg Config) *refIndex {
	cfg = cfg.withDefaults()
	return &refIndex{cfg: cfg, tok: NewIndex(cfg)}
}

func (x *refIndex) tokenize(s string) []string { return x.tok.tokenize(s) }

func (x *refIndex) Set(id int64, text string) {
	toks := x.tokenize(text)
	x.ver++
	ver := x.ver
	tf := make(map[string]uint32, len(toks))
	order := make([]string, 0, len(toks))
	for _, t := range toks {
		if tf[t] == 0 {
			order = append(order, t)
		}
		tf[t]++
	}
	for _, t := range order {
		var entries []refPosting
		if v, ok := x.postings.Load(t); ok {
			entries = v.(*refPostingList).entries
		}
		entries = append(entries, refPosting{id: id, ver: ver, tf: tf[t]})
		x.postings.Store(t, &refPostingList{entries: entries})
	}
	if v, ok := x.docs.Load(id); ok {
		x.totalTok -= int64(v.(*refDocEntry).tokens)
	} else {
		x.ndocs++
	}
	x.docs.Store(id, &refDocEntry{ver: ver, tokens: len(toks), text: text})
	x.totalTok += int64(len(toks))
}

func (x *refIndex) Delete(id int64) {
	if v, ok := x.docs.Load(id); ok {
		x.docs.Delete(id)
		x.ndocs--
		x.totalTok -= int64(v.(*refDocEntry).tokens)
	}
}

func (x *refIndex) Search(query string, k int, allow func(int64) bool) []Scored {
	if k <= 0 {
		return nil
	}
	toks := x.tokenize(query)
	if len(toks) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(toks))
	terms := toks[:0]
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			terms = append(terms, t)
		}
	}
	n := float64(x.ndocs)
	if n == 0 {
		return nil
	}
	avgdl := float64(x.totalTok) / n
	if avgdl <= 0 {
		avgdl = 1
	}

	type hit struct {
		id int64
		tf uint32
		dl float64
	}
	scores := make(map[int64]float64)
	var hits []hit
	for _, t := range terms {
		v, ok := x.postings.Load(t)
		if !ok {
			continue
		}
		entries := v.(*refPostingList).entries
		hits = hits[:0]
		for i := range entries {
			p := entries[i]
			dv, ok := x.docs.Load(p.id)
			if !ok {
				continue
			}
			d := dv.(*refDocEntry)
			if d.ver != p.ver {
				continue // superseded by a newer Set
			}
			if allow != nil && !allow(p.id) {
				continue
			}
			hits = append(hits, hit{id: p.id, tf: p.tf, dl: float64(d.tokens)})
		}
		df := float64(len(hits))
		if df == 0 {
			continue
		}
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for _, h := range hits {
			tf := float64(h.tf)
			norm := tf * (x.cfg.K1 + 1) / (tf + x.cfg.K1*(1-x.cfg.B+x.cfg.B*h.dl/avgdl))
			scores[h.id] += idf * norm
		}
	}
	if len(scores) == 0 {
		return nil
	}
	out := make([]Scored, 0, len(scores))
	for id, s := range scores {
		out = append(out, Scored{ID: id, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// sameScored compares rankings on IDs and on the bits of every score.
func sameScored(a, b []Scored) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d hits vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return fmt.Errorf("rank %d: {%d %x} vs {%d %x}", i, a[i].ID, math.Float64bits(a[i].Score), b[i].ID, math.Float64bits(b[i].Score))
		}
	}
	return nil
}

var refWords = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa", "the", "of"}

func refText(rng *rand.Rand) string {
	var b strings.Builder
	for j, n := 0, rng.Intn(9); j < n; j++ { // 0 words: an empty document
		b.WriteString(refWords[rng.Intn(len(refWords))])
		b.WriteByte(' ')
	}
	return b.String()
}

// TestSearchMatchesReference drives Index and the reference through the
// same seeded history — inserts, replaces, deletes, re-inserts of
// deleted IDs, a Restore half way — and compares every query shape the
// contract names after each phase.
func TestSearchMatchesReference(t *testing.T) {
	queries := []string{
		"alpha", "beta gamma", "theta alpha zeta iota", "delta delta", "kappa alpha kappa",
		"the", "the alpha of", "", "  ,; ", "unknown", "unknown alpha", "eta eta eta theta",
	}
	allows := map[string]func(int64) bool{
		"nil":  nil,
		"even": func(id int64) bool { return id%2 == 0 },
		"none": func(int64) bool { return false },
	}
	for _, cfg := range []Config{{}, {K1: 1.4, B: 0.6, Stopwords: []string{"the", "of"}}} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x, ref := NewIndex(cfg), newRefIndex(cfg)
			check := func(phase string) {
				t.Helper()
				for _, q := range queries {
					for name, allow := range allows {
						for _, k := range []int{0, 1, 7, 40, 1000} {
							if err := sameScored(x.Search(q, k, allow), ref.Search(q, k, allow)); err != nil {
								t.Fatalf("cfg %+v seed %d %s: query %q k %d allow %s: %v", cfg, seed, phase, q, k, name, err)
							}
						}
					}
				}
			}
			check("empty")
			mutate := func(ops int) {
				for i := 0; i < ops; i++ {
					id := int64(rng.Intn(120))
					if rng.Intn(5) == 0 {
						x.Delete(id)
						ref.Delete(id)
						continue
					}
					text := refText(rng)
					x.Set(id, text, nil)
					ref.Set(id, text)
				}
			}
			mutate(400)
			check("mutated")

			// Restore drops the stale postings and renumbers the
			// ordinals; the reference is rebuilt the way Restore
			// documents, ascending ID.
			snap := x.Snapshot()
			x.Restore(snap)
			ref = newRefIndex(cfg)
			ids := make([]int64, 0, len(snap))
			for id := range snap {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				ref.Set(id, snap[id].Text)
			}
			check("restored")
			mutate(200)
			check("restored+mutated")

			for id := int64(0); id < 120; id++ {
				x.Delete(id)
				ref.Delete(id)
			}
			check("all deleted")
		}
	}
}
