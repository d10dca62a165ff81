package serve

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
)

// Hybrid retrieval endpoint: POST /v1/collections/{name}/hybrid (and
// /v1/hybrid for the default tenant) answers a query with a text leg, a
// vector leg, or both, rank-fused by the backend (core.SearchHybrid).
// Hybrid queries bypass the micro-batcher — each carries its own text,
// so there is nothing to coalesce — but they get their own per-tenant
// LRU cache, purged on every mutation alongside the vector result
// cache.

// hybridRequest is the hybrid POST body. At least one of Query / Text
// must be set.
type hybridRequest struct {
	Query []float32 `json:"query,omitempty"`
	Text  string    `json:"text,omitempty"`
	K     int       `json:"k,omitempty"`
	// Fusion selects the rank-merging scheme: "rrf" (default) or
	// "weighted".
	Fusion string `json:"fusion,omitempty"`
	// RRFK overrides the reciprocal-rank constant (default 60).
	RRFK float64 `json:"rrf_k,omitempty"`
	// VecWeight / LexWeight weigh the legs under weighted fusion
	// (default 0.5 each).
	VecWeight float64 `json:"vec_weight,omitempty"`
	LexWeight float64 `json:"lex_weight,omitempty"`
	// Filter restricts both legs (filter.Parse syntax).
	Filter    string `json:"filter,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// hybridResult is one fused hit. Dist is the exact vector distance,
// present only when the request carried a vector leg and the document's
// vector is known; BM25 is the lexical score, 0 when the document
// missed the lexical leg.
type hybridResult struct {
	ID    int64    `json:"id"`
	Score float64  `json:"score"`
	Dist  *float32 `json:"dist,omitempty"`
	BM25  float64  `json:"bm25,omitempty"`
}

// hybridResponse is the 200 body.
type hybridResponse struct {
	K       int            `json:"k"`
	Fusion  string         `json:"fusion"`
	TookUS  int64          `json:"took_us"`
	Cached  bool           `json:"cached,omitempty"`
	Results []hybridResult `json:"results"`
}

// hybrid is the hybrid row.
func (c *call) hybrid(req *hybridRequest) (any, error) {
	s, t := c.s, c.t
	if req.Text == "" && len(req.Query) == 0 {
		return nil, badRequest(codeMissingLeg, "hybrid search needs a text leg, a vector leg, or both")
	}
	if len(req.Query) != 0 {
		if dim := t.backend.Dim(); len(req.Query) != dim {
			return nil, badRequest(codeDimMismatch,
				fmt.Sprintf("query has dim %d, collection %s has dim %d", len(req.Query), t.name, dim))
		}
	}
	switch req.Fusion {
	case "", core.FusionRRF, core.FusionWeighted:
	default:
		return nil, badRequest(codeBadRequest,
			fmt.Sprintf("unknown fusion mode %q (want %q or %q)", req.Fusion, core.FusionRRF, core.FusionWeighted))
	}
	f, err := filter.Parse(req.Filter)
	if err != nil {
		return nil, badRequest(codeBadFilter, err.Error())
	}
	hb, ok := t.backend.(HybridBackend)
	if !ok {
		return nil, &apiError{http.StatusNotImplemented, codeNotImplemented, "backend does not support hybrid search"}
	}
	k := s.clampK(req.K)
	opts := core.HybridOptions{
		Fusion:    req.Fusion,
		RRFK:      req.RRFK,
		VecWeight: req.VecWeight,
		LexWeight: req.LexWeight,
		Filter:    f,
	}
	fusion := req.Fusion
	if fusion == "" {
		fusion = core.FusionRRF
	}

	s.stats.HybridRequests.Add(1)
	key := cacheKey(t.name, f.Canonical(), req.Text, fusion,
		[3]float64{req.RRFK, req.VecWeight, req.LexWeight}, k, req.Query)
	res, gen, ok := t.hybrid.get(key)
	if ok {
		s.stats.HybridCacheHits.Add(1)
	} else {
		ctx, cancel := c.withTimeout(req.TimeoutMS)
		defer cancel()
		if res, err = hb.SearchHybrid(ctx, req.Query, req.Text, k, opts); err != nil {
			return nil, err
		}
		t.hybrid.put(key, res, gen)
	}
	s.stats.RecordLatency(time.Since(c.t0))
	return toHybridResponse(k, fusion, res, ok, c.t0), nil
}

func toHybridResponse(k int, fusion string, res []core.HybridResult, cached bool, t0 time.Time) hybridResponse {
	out := hybridResponse{
		K:       k,
		Fusion:  fusion,
		Cached:  cached,
		TookUS:  time.Since(t0).Microseconds(),
		Results: make([]hybridResult, len(res)),
	}
	for i, h := range res {
		hr := hybridResult{ID: h.ID, Score: h.Score, BM25: h.BM25}
		if h.HasDist {
			d := h.Dist
			hr.Dist = &d
		}
		out.Results[i] = hr
	}
	return out
}
