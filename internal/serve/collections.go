package serve

import (
	"net/http"

	"repro/internal/collection"
)

// Collection admin surface. List works on every server; create and
// drop need a registry-backed one (NewCollectionServer) — a
// single-backend gateway has nowhere to put a new collection's files
// and answers 501.

// collectionInfo is one entry of the GET /v1/collections response.
type collectionInfo struct {
	Name   string `json:"name"`
	Dim    int    `json:"dim"`
	Metric string `json:"metric,omitempty"`
	Points int    `json:"points"`
	Frozen bool   `json:"frozen,omitempty"`
}

// createCollectionRequest is the POST /v1/collections body: a name
// plus the collection's Config fields inline ({"name":"docs","dim":128,
// "metric":"cosine",...}).
type createCollectionRequest struct {
	Name string `json:"name"`
	collection.Config
}

func (s *Server) handleColList(w http.ResponseWriter, r *http.Request) {
	infos := []collectionInfo{} // never null in the body
	for _, t := range s.snapshot() {
		infos = append(infos, t.info())
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"collections": infos})
}

// createCollection is the create row.
func (c *call) createCollection(req *createCollectionRequest) (any, error) {
	s := c.s
	col, err := s.reg.Create(req.Name, req.Config)
	if err != nil {
		if rankOf(err) == len(statusTable) {
			// What Create refuses under no sentinel is the request's config:
			// no dim, an unknown metric, sq8 without frozen.
			return nil, badRequest(codeBadRequest, err.Error())
		}
		return nil, err
	}
	t := s.newTenant(req.Name, &CollectionBackend{Col: col, Threads: s.cfg.Threads}, col)
	s.mu.Lock()
	s.tenants[req.Name] = t
	s.mu.Unlock()
	c.status = http.StatusCreated
	return t.info(), nil
}

// dropCollection is the drop row; it reads no body.
func (c *call) dropCollection(*struct{}) (any, error) {
	s, t := c.s, c.t
	s.mu.Lock()
	won := s.tenants[t.name] == t // of two racing drops one unregisters it
	if won {
		delete(s.tenants, t.name)
	}
	s.mu.Unlock()
	if !won {
		return nil, unknownCollection(t.name)
	}
	// Unregistered first: new requests 404 immediately, then the
	// tenant's queued work finishes, then the registry drains the
	// collection's own in-flight admissions and deletes its files.
	if err := t.batcher.Drain(c.r.Context()); err != nil {
		return nil, &apiError{http.StatusServiceUnavailable, codeDraining, "drop interrupted: " + err.Error()}
	}
	if err := s.reg.Drop(c.r.Context(), t.name); err != nil {
		return nil, &apiError{http.StatusInternalServerError, codeInternal, err.Error()}
	}
	return map[string]any{"dropped": t.name}, nil
}
