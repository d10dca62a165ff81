package core

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/filter"
	"repro/internal/fusion"
	"repro/internal/lexical"
	"repro/internal/topk"
)

// Hybrid retrieval: the engine owns a BM25 inverted index
// (internal/lexical) next to its vector partitions, populated by
// SetText and queried by SearchHybrid. The vector leg runs the existing
// dynamic/frozen/filtered search paths unchanged; the lexical leg
// queries the inverted index under the filter and the engine's
// liveness rule (admit), and a fold deletes the document for good;
// internal/fusion merges the two rankings. The lexical
// index also retains each document's vector, so fused candidates are
// re-scored with exact float32 distances — the approximate legs decide
// WHICH candidates surface, never what distance is reported, which
// makes hybrid results reproducible across runs and across crash
// recovery.

// Fusion mode names accepted by HybridOptions.Fusion.
const (
	FusionRRF      = "rrf"
	FusionWeighted = "weighted"
)

// HybridOptions tunes SearchHybrid. The zero value selects RRF with
// K=60, equal leg weights, and a per-leg candidate depth of 4k.
type HybridOptions struct {
	// Fusion selects the rank-merging scheme: FusionRRF (default) or
	// FusionWeighted.
	Fusion string
	// RRFK is the reciprocal-rank constant (default fusion.DefaultRRFK).
	RRFK float64
	// VecWeight / LexWeight weigh the legs under FusionWeighted
	// (default 0.5 each).
	VecWeight, LexWeight float64
	// LegK is how many candidates each leg contributes before fusion
	// (default 4k, at least 10): deep enough that a document ranked well
	// by only one leg still enters the fused pool.
	LegK int
	// Filter optionally restricts both legs to matching documents.
	Filter *filter.Expr
}

func (o *HybridOptions) fill(k int) error {
	switch o.Fusion {
	case "":
		o.Fusion = FusionRRF
	case FusionRRF, FusionWeighted:
	default:
		return fmt.Errorf("core: unknown fusion mode %q (want %q or %q)", o.Fusion, FusionRRF, FusionWeighted)
	}
	if o.RRFK <= 0 {
		o.RRFK = fusion.DefaultRRFK
	}
	if o.VecWeight <= 0 && o.LexWeight <= 0 {
		o.VecWeight, o.LexWeight = 0.5, 0.5
	} else {
		if o.VecWeight < 0 {
			o.VecWeight = 0
		}
		if o.LexWeight < 0 {
			o.LexWeight = 0
		}
	}
	if o.LegK <= 0 {
		o.LegK = 4 * k
		if o.LegK < 10 {
			o.LegK = 10
		}
	}
	return nil
}

// HybridResult is one fused hit. Score is the fused score (higher =
// better); Dist is the exact float32 vector distance when the query
// carried a vector and the document's vector is known (else 0 with
// HasDist false); BM25 is the lexical score (0 when the document missed
// the lexical leg).
type HybridResult struct {
	ID      int64
	Score   float64
	Dist    float32
	HasDist bool
	BM25    float64
}

// lexIndex returns the current lexical index.
func (e *Engine) lexIndex() *lexical.Index {
	e.lexMu.RLock()
	defer e.lexMu.RUnlock()
	return e.lex
}

// SetLexicalConfig replaces the engine's (empty) lexical index with one
// configured with cfg — per-collection BM25 parameters and stopwords.
// It must be called before any document is indexed: tokenization
// happens at SetText time, so reconfiguring a populated index would
// desynchronize postings from parameters.
func (e *Engine) SetLexicalConfig(cfg lexical.Config) error {
	e.lexMu.Lock()
	defer e.lexMu.Unlock()
	if e.lex.Docs() > 0 {
		return fmt.Errorf("core: lexical index already holds %d documents; configure before indexing", e.lex.Docs())
	}
	e.lex = lexical.NewIndex(cfg)
	return nil
}

// SetText indexes text under id for hybrid retrieval, replacing any
// previous document. vec is the vector id was upserted with; the index
// retains a copy for exact re-scoring. Safe for concurrent use with
// searches. Like SetTags, this only attaches metadata — the vector
// itself is inserted through the usual Add/AddAt path.
func (e *Engine) SetText(id int64, text string, vec []float32) {
	e.lexIndex().Set(id, text, vec)
}

// Text returns id's indexed document text.
func (e *Engine) Text(id int64) (string, bool) { return e.lexIndex().Text(id) }

// TextCount returns the number of documents in the lexical index.
func (e *Engine) TextCount() int { return e.lexIndex().Docs() }

// LexicalStats summarizes the lexical index for /varz.
func (e *Engine) LexicalStats() lexical.Stats { return e.lexIndex().Stats() }

// TextsSnapshot returns a point-in-time view of every indexed document;
// the durability layer persists it alongside each engine snapshot.
func (e *Engine) TextsSnapshot() map[int64]lexical.Doc { return e.lexIndex().Snapshot() }

// LexicalDump writes the canonical live-postings dump — a
// construction-history-independent rendering of the inverted index that
// crash-recovery tests compare byte-for-byte.
func (e *Engine) LexicalDump(w io.Writer) error { return e.lexIndex().DumpPostings(w) }

// RestoreTexts replaces the whole lexical index contents — the recovery
// half of TextsSnapshot, called after LoadEngine before WAL tail
// replay. Parameters (SetLexicalConfig) must be applied first.
func (e *Engine) RestoreTexts(docs map[int64]lexical.Doc) { e.lexIndex().Restore(docs) }

// SearchLexical runs the BM25 leg alone: top-k keyword matches under
// the engine's liveness rule and an optional filter.
func (e *Engine) SearchLexical(text string, k int, f *filter.Expr) []lexical.Scored {
	return e.lexIndex().Search(text, k, e.admit(e.FilterPredicate(f)))
}

// SearchHybrid answers a hybrid query: the vector leg (when q is
// non-nil) runs the regular approximate search, the lexical leg (when
// text is non-empty) runs BM25 over the inverted index, and the two
// rankings are fused. Both legs honor opts.Filter and deletes. At
// least one leg must be present.
//
// Candidates from either leg are re-scored with exact float32 distances
// (using the vector stored at SetText time) before the vector leg is
// ranked, so the fused ordering is a pure function of the candidate
// sets — identical before a crash and after recovery, and identical
// across scalar/frozen/SQ8 serving modes that surface the same
// candidates.
func (e *Engine) SearchHybrid(q []float32, text string, k int, opts HybridOptions) ([]HybridResult, error) {
	if err := opts.fill(k); err != nil {
		return nil, err
	}
	if k <= 0 {
		k = e.cfg.K
	}
	if len(q) == 0 && text == "" {
		return nil, fmt.Errorf("core: hybrid search needs a text leg, a vector leg, or both")
	}
	if len(q) != 0 && len(q) != e.dim {
		return nil, fmt.Errorf("core: query dim %d, index dim %d", len(q), e.dim)
	}

	lex := e.lexIndex()
	dist := e.cfg.Metric.Func()
	exactDist := func(id int64) (float32, bool) {
		if v, ok := lex.Vector(id); ok && len(v) == len(q) {
			return dist(q, v), true
		}
		return 0, false
	}

	// The legs: the engine's one read path, and BM25 under the same
	// predicates.
	var rs []topk.Result
	if len(q) != 0 {
		var err error
		if rs, err = e.SearchFiltered(q, opts.LegK, opts.Filter); err != nil {
			return nil, err
		}
	}
	var scored []lexical.Scored
	if text != "" {
		scored = lex.Search(text, opts.LegK, e.admit(e.FilterPredicate(opts.Filter)))
	}

	// One record per candidate of either leg, at most 2·LegK of them.
	hits := make([]hybridHit, 0, len(rs)+len(scored))

	// Vector candidates are re-scored exactly where the stored vector
	// is known.
	vecLeg := make([]fusion.Candidate, 0, len(rs))
	for _, r := range rs {
		d, ok := exactDist(r.ID)
		if !ok {
			d = r.Dist
		}
		hits = append(hits, hybridHit{id: r.ID, dist: d, hasDist: true})
		vecLeg = append(vecLeg, fusion.Candidate{ID: r.ID, Score: -float64(d)})
	}
	// Re-scoring may reorder near-equal candidates the approximate
	// leg surfaced; rank on exact scores with ID tie-breaks so the
	// leg's ranking is reproducible.
	fusion.Sort(vecLeg)

	lexLeg := make([]fusion.Candidate, 0, len(scored))
	for _, s := range scored {
		hits = append(hits, hybridHit{id: s.ID, bm25: s.Score})
		lexLeg = append(lexLeg, fusion.Candidate{ID: s.ID, Score: s.Score})
	}

	// Order the records by ID for lookup. The sort is stable, so a
	// document both legs surfaced has its vector record first; fold the
	// lexical one into it, and give lexical-only documents their exact
	// distance.
	byID := func(a, b hybridHit) int { return cmp.Compare(a.id, b.id) }
	slices.SortStableFunc(hits, byID)
	n := 0
	for _, h := range hits {
		if n > 0 && hits[n-1].id == h.id {
			hits[n-1].bm25 = h.bm25
			continue
		}
		if !h.hasDist && len(q) != 0 {
			h.dist, h.hasDist = exactDist(h.id)
		}
		hits[n] = h
		n++
	}
	hits = hits[:n]

	var fused []fusion.Candidate
	if opts.Fusion == FusionWeighted {
		fused = fusion.WeightedMinMax([]float64{opts.VecWeight, opts.LexWeight}, k, vecLeg, lexLeg)
	} else {
		fused = fusion.RRF(opts.RRFK, k, vecLeg, lexLeg)
	}
	out := make([]HybridResult, len(fused))
	for i, c := range fused {
		j, _ := slices.BinarySearchFunc(hits, hybridHit{id: c.ID}, byID)
		h := hits[j] // every fused candidate came from a leg
		out[i] = HybridResult{ID: c.ID, Score: c.Score, Dist: h.dist, HasDist: h.hasDist, BM25: h.bm25}
	}
	return out, nil
}

// hybridHit is what SearchHybrid knows about one candidate besides its
// fused score: the exact distance and the BM25 score, where it has them.
type hybridHit struct {
	id      int64
	bm25    float64
	dist    float32
	hasDist bool
}
