package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/collection"
	"repro/internal/store"
)

// Write endpoints. POST /v1/upsert and /v1/delete (and their
// /v1/collections/{name}/ forms) route to the tenant backend's Mutator
// half when it has one (EngineBackend, CollectionBackend; the
// distributed MasterBackend is read-only and answers 501). Every
// successful mutation purges that tenant's result cache — and only
// that tenant's: caches are per-collection, so one collection's writes
// never evict another's entries.

// upsertPoint is one (id, vector) pair, optionally tagged for filtered
// search and/or carrying document text for hybrid retrieval. (A point
// used to pick one: the WAL had a record kind for tags and one for text
// but none for both, so no point could match a filtered hybrid query.)
type upsertPoint struct {
	ID     int64             `json:"id"`
	Vector []float32         `json:"vector"`
	Tags   map[string]string `json:"tags,omitempty"`
	Text   string            `json:"text,omitempty"`
}

// attrs are the attributes the point carries. An absent or empty field
// carries nothing: whatever the ID already has stays.
func (p *upsertPoint) attrs() store.Attrs {
	var a store.Attrs
	if len(p.Tags) > 0 {
		a.Tags = p.Tags
	}
	if p.Text != "" {
		a.Text = &p.Text
	}
	return a
}

// upsertRequest is the upsert POST body: either a single point
// ({"id":..,"vector":[..],"tags":{..}}) or a batch
// ({"points":[{..},..]}).
type upsertRequest struct {
	ID     *int64            `json:"id,omitempty"`
	Vector []float32         `json:"vector,omitempty"`
	Tags   map[string]string `json:"tags,omitempty"`
	Text   string            `json:"text,omitempty"`
	Points []upsertPoint     `json:"points,omitempty"`
}

// deleteRequest is the delete POST body: {"id":..} or {"ids":[..]}.
type deleteRequest struct {
	ID  *int64  `json:"id,omitempty"`
	IDs []int64 `json:"ids,omitempty"`
}

// mutateResponse is the 200 body of both write endpoints. Applied
// counts how many mutations landed (on a mid-batch failure the error
// response reports the count that made it in).
type mutateResponse struct {
	Upserted int `json:"upserted,omitempty"`
	Deleted  int `json:"deleted,omitempty"`
}

// mutator resolves a tenant backend's write half, answering 501 when
// the backend is read-only and 503 when the write circuit breaker is
// open (the storage layer failed; mutations are refused until a
// restart while searches keep serving).
func (s *Server) mutator(t *tenant, w http.ResponseWriter) (Mutator, bool) {
	m, ok := t.backend.(Mutator)
	if !ok {
		writeError(w, http.StatusNotImplemented, codeNotImplemented, "backend does not support writes")
		return nil, false
	}
	if err := writeBroken(t); err != nil {
		s.stats.WritesRejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, codeWriteFailed,
			"write path failed, mutations rejected until restart: "+err.Error())
		return nil, false
	}
	return m, true
}

// mutationStatus maps a mid-batch mutation error to an HTTP status and
// code: attributes the log would not read back are 400, the tenant's
// admission quota is 429, draining 503, a storage failure that tripped
// the breaker 503 (the replica is degraded, not the request), anything
// else 500.
func (s *Server) mutationStatus(err error) (int, string) {
	switch {
	case errors.Is(err, store.ErrInvalidUpsert):
		s.stats.BadRequests.Add(1)
		return http.StatusBadRequest, codeBadRequest
	case errors.Is(err, collection.ErrLexicalDisabled):
		s.stats.BadRequests.Add(1)
		return http.StatusBadRequest, codeLexicalDisabled
	case errors.Is(err, collection.ErrQuota):
		return http.StatusTooManyRequests, codeQuota
	case errors.Is(err, collection.ErrDraining):
		return http.StatusServiceUnavailable, codeDraining
	case errors.Is(err, store.ErrWALFailed):
		s.stats.WritesRejected.Add(1)
		return http.StatusServiceUnavailable, codeWriteFailed
	default:
		return http.StatusInternalServerError, codeInternal
	}
}

func (s *Server) decodeMutation(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, codeBadRequest, "POST only")
		return false
	}
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, codeDraining, ErrDraining.Error())
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		s.stats.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleUpsert(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, DefaultCollection)
	if !ok {
		return
	}
	s.upsertTenant(t, w, r)
}

func (s *Server) handleColUpsert(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r.PathValue("name"))
	if !ok {
		return
	}
	s.upsertTenant(t, w, r)
}

func (s *Server) upsertTenant(t *tenant, w http.ResponseWriter, r *http.Request) {
	mut, ok := s.mutator(t, w)
	if !ok {
		return
	}
	var req upsertRequest
	if !s.decodeMutation(w, r, &req) {
		return
	}
	points := req.Points
	if req.Vector != nil {
		if points != nil {
			s.stats.BadRequests.Add(1)
			writeError(w, http.StatusBadRequest, codeBadRequest, "set vector or points, not both")
			return
		}
		if req.ID == nil {
			s.stats.BadRequests.Add(1)
			writeError(w, http.StatusBadRequest, codeBadRequest, "upsert needs an id")
			return
		}
		points = []upsertPoint{{ID: *req.ID, Vector: req.Vector, Tags: req.Tags, Text: req.Text}}
	}
	if len(points) == 0 {
		s.stats.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, codeBadRequest, "no points")
		return
	}
	if len(points) > s.cfg.MaxQueries {
		s.stats.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("%d points exceeds the per-request limit %d", len(points), s.cfg.MaxQueries))
		return
	}
	dim := t.backend.Dim()
	for i, p := range points {
		if len(p.Vector) != dim {
			s.stats.BadRequests.Add(1)
			writeError(w, http.StatusBadRequest, codeDimMismatch,
				fmt.Sprintf("point %d has dim %d, collection %s has dim %d", i, len(p.Vector), t.name, dim))
			return
		}
	}
	for i := range points {
		p := &points[i]
		if err := mut.Upsert(p.Vector, p.ID, p.attrs()); err != nil {
			t.applied(&s.stats.Upserts, i)
			status, code := s.mutationStatus(err)
			writeError(w, status, code,
				fmt.Sprintf("upsert of point %d (id %d) failed after %d applied: %v", i, p.ID, i, err))
			return
		}
	}
	t.applied(&s.stats.Upserts, len(points))
	writeJSON(w, http.StatusOK, mutateResponse{Upserted: len(points)})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, DefaultCollection)
	if !ok {
		return
	}
	s.deleteTenant(t, w, r)
}

func (s *Server) handleColDelete(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r.PathValue("name"))
	if !ok {
		return
	}
	s.deleteTenant(t, w, r)
}

func (s *Server) deleteTenant(t *tenant, w http.ResponseWriter, r *http.Request) {
	mut, ok := s.mutator(t, w)
	if !ok {
		return
	}
	var req deleteRequest
	if !s.decodeMutation(w, r, &req) {
		return
	}
	ids := req.IDs
	if req.ID != nil {
		if ids != nil {
			s.stats.BadRequests.Add(1)
			writeError(w, http.StatusBadRequest, codeBadRequest, "set id or ids, not both")
			return
		}
		ids = []int64{*req.ID}
	}
	if len(ids) == 0 {
		s.stats.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, codeBadRequest, "no ids")
		return
	}
	for i, id := range ids {
		if err := mut.Delete(id); err != nil {
			t.applied(&s.stats.Deletes, i)
			status, code := s.mutationStatus(err)
			writeError(w, status, code,
				fmt.Sprintf("delete of id %d failed after %d applied: %v", id, i, err))
			return
		}
	}
	t.applied(&s.stats.Deletes, len(ids))
	writeJSON(w, http.StatusOK, mutateResponse{Deleted: len(ids)})
}
