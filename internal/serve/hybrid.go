package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"time"

	"repro/internal/collection"
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

// hybridCacheKey fingerprints the full hybrid request identity:
// collection, canonical filter, query text, vector, k, and every fusion
// parameter — two requests differing in any of them are different
// result sets. Strings are length-prefixed so adjacent fields cannot
// alias.
func hybridCacheKey(tenant, canon, text string, q []float32, k int, fusion string, rrfK, vw, lw float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint32(b[:4], uint32(len(s)))
		h.Write(b[:4])
		h.Write([]byte(s))
	}
	writeStr(tenant)
	writeStr(canon)
	writeStr(text)
	writeStr(fusion)
	binary.LittleEndian.PutUint32(b[:4], uint32(k))
	h.Write(b[:4])
	for _, x := range []float64{rrfK, vw, lw} {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint32(b[:4], uint32(len(q)))
	h.Write(b[:4])
	for _, x := range q {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(x))
		h.Write(b[:4])
	}
	return h.Sum64()
}

func (s *Server) handleHybrid(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, DefaultCollection)
	if !ok {
		return
	}
	s.hybridTenant(t, w, r)
}

func (s *Server) handleColHybrid(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r.PathValue("name"))
	if !ok {
		return
	}
	s.hybridTenant(t, w, r)
}

// hybridStatus maps a hybrid search error onto HTTP. The lexical gate
// is a client error (the collection was created without "lexical":
// true); everything else reuses the search-path ranking.
func hybridStatus(err error) (int, string) {
	if errors.Is(err, collection.ErrLexicalDisabled) {
		return http.StatusBadRequest, codeLexicalDisabled
	}
	status, code, _ := failStatus([]error{err})
	return status, code
}

func (s *Server) hybridTenant(t *tenant, w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, codeDraining, ErrDraining.Error())
		return
	}
	var req hybridRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&req); err != nil {
		s.stats.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Text == "" && len(req.Query) == 0 {
		s.stats.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, codeMissingLeg,
			"hybrid search needs a text leg, a vector leg, or both")
		return
	}
	if len(req.Query) != 0 {
		if dim := t.backend.Dim(); len(req.Query) != dim {
			s.stats.BadRequests.Add(1)
			writeError(w, http.StatusBadRequest, codeDimMismatch,
				fmt.Sprintf("query has dim %d, collection %s has dim %d", len(req.Query), t.name, dim))
			return
		}
	}
	switch req.Fusion {
	case "", core.FusionRRF, core.FusionWeighted:
	default:
		s.stats.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("unknown fusion mode %q (want %q or %q)", req.Fusion, core.FusionRRF, core.FusionWeighted))
		return
	}
	f, err := filter.Parse(req.Filter)
	if err != nil {
		s.stats.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, codeBadFilter, err.Error())
		return
	}
	hb, ok := t.backend.(HybridBackend)
	if !ok {
		writeError(w, http.StatusNotImplemented, codeNotImplemented,
			"backend does not support hybrid search")
		return
	}
	k := req.K
	if k <= 0 {
		k = s.cfg.DefaultK
	}
	if k > s.cfg.MaxK {
		k = s.cfg.MaxK
	}
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
	key := hybridCacheKey(t.name, f.Canonical(), req.Text, req.Query, k,
		fusion, req.RRFK, req.VecWeight, req.LexWeight)
	if res, ok := t.hybrid.get(key); ok {
		s.stats.HybridCacheHits.Add(1)
		s.stats.RecordLatency(time.Since(t0))
		writeJSON(w, http.StatusOK, toHybridResponse(k, fusion, res, true, t0))
		return
	}

	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := hb.SearchHybrid(ctx, req.Query, req.Text, k, opts)
	if err != nil {
		status, code := hybridStatus(err)
		if status == http.StatusBadRequest {
			s.stats.BadRequests.Add(1)
		}
		writeError(w, status, code, err.Error())
		return
	}
	t.hybrid.put(key, res)
	s.stats.RecordLatency(time.Since(t0))
	writeJSON(w, http.StatusOK, toHybridResponse(k, fusion, res, false, t0))
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
