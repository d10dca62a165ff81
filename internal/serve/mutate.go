package serve

import (
	"fmt"

	"repro/internal/store"
)

// Write operations. The upsert and delete rows reach the tenant
// backend's Mutator half when it has one (EngineBackend,
// CollectionBackend; the distributed MasterBackend is read-only and the
// pipeline answers 501). Every successful mutation purges that tenant's
// result cache — and only that tenant's: caches are per-collection, so
// one collection's writes never evict another's entries.

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

// upsert is the upsert row. Every mutation that lands purges the
// tenant's caches, the ones before a mid-batch failure included.
func (c *call) upsert(req *upsertRequest) (any, error) {
	s, t := c.s, c.t
	points := req.Points
	if req.Vector != nil {
		if points != nil {
			return nil, badRequest(codeBadRequest, "set vector or points, not both")
		}
		if req.ID == nil {
			return nil, badRequest(codeBadRequest, "upsert needs an id")
		}
		points = []upsertPoint{{ID: *req.ID, Vector: req.Vector, Tags: req.Tags, Text: req.Text}}
	}
	if len(points) == 0 {
		return nil, badRequest(codeBadRequest, "no points")
	}
	if len(points) > s.cfg.MaxQueries {
		return nil, badRequest(codeBadRequest,
			fmt.Sprintf("%d points exceeds the per-request limit %d", len(points), s.cfg.MaxQueries))
	}
	dim := t.backend.Dim()
	for i, p := range points {
		if len(p.Vector) != dim {
			return nil, badRequest(codeDimMismatch,
				fmt.Sprintf("point %d has dim %d, collection %s has dim %d", i, len(p.Vector), t.name, dim))
		}
	}
	for i := range points {
		p := &points[i]
		if err := c.mut.Upsert(p.Vector, p.ID, p.attrs()); err != nil {
			t.applied(&s.stats.Upserts, i)
			return nil, fmt.Errorf("upsert of point %d (id %d) failed after %d applied: %w", i, p.ID, i, err)
		}
	}
	t.applied(&s.stats.Upserts, len(points))
	return mutateResponse{Upserted: len(points)}, nil
}

// delete is the delete row.
func (c *call) delete(req *deleteRequest) (any, error) {
	ids := req.IDs
	if req.ID != nil {
		if ids != nil {
			return nil, badRequest(codeBadRequest, "set id or ids, not both")
		}
		ids = []int64{*req.ID}
	}
	if len(ids) == 0 {
		return nil, badRequest(codeBadRequest, "no ids")
	}
	for i, id := range ids {
		if err := c.mut.Delete(id); err != nil {
			c.t.applied(&c.s.stats.Deletes, i)
			return nil, fmt.Errorf("delete of id %d failed after %d applied: %w", id, i, err)
		}
	}
	c.t.applied(&c.s.stats.Deletes, len(ids))
	return mutateResponse{Deleted: len(ids)}, nil
}
