package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/topk"
	"repro/internal/vec"
)

// The verification pass sends the fixed sample through the workload's
// own route and fails the run, naming the check, when a reply has other
// than k results, results out of order, or recall under the floor.

type searchReply struct {
	Results []struct {
		IDs   []int64   `json:"ids"`
		Dists []float32 `json:"dists"`
	} `json:"results"`
}

type hybridReply struct {
	Results []struct {
		ID    int64   `json:"id"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// failf names a failed correctness check.
func failf(check, format string, args ...any) error {
	return fmt.Errorf("check %s failed: %s", check, fmt.Sprintf(format, args...))
}

// verifyReplies sends the framed sample and returns one result row per
// query.
func verifyReplies(w workload, sample [][]byte, cn *conn) ([][]topk.Result, error) {
	var rows [][]topk.Result
	var buf bytes.Buffer
	for i, req := range sample {
		status, err := cn.do(req, &buf)
		if err != nil || status != http.StatusOK {
			return nil, failf("verify_status", "request %d: status %d, err %v, body %.200s", i, status, err, buf.String())
		}
		if w.lexical {
			var rep hybridReply
			if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
				return nil, failf("verify_decode", "request %d: %v", i, err)
			}
			row := make([]topk.Result, len(rep.Results))
			for j, r := range rep.Results {
				if j > 0 && r.Score > rep.Results[j-1].Score {
					return nil, failf("result_order", "hybrid query %d: score rises at rank %d", i, j)
				}
				row[j] = topk.Result{ID: r.ID}
			}
			rows = append(rows, row)
			continue
		}
		var rep searchReply
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			return nil, failf("verify_decode", "request %d: %v", i, err)
		}
		for _, r := range rep.Results {
			if len(r.IDs) != len(r.Dists) {
				return nil, failf("result_count", "request %d: %d ids vs %d dists", i, len(r.IDs), len(r.Dists))
			}
			row := make([]topk.Result, len(r.IDs))
			for j := range r.IDs {
				if j > 0 && r.Dists[j] < r.Dists[j-1] {
					return nil, failf("result_order", "request %d: distance falls at rank %d", i, j)
				}
				row[j] = topk.Result{ID: r.IDs[j], Dist: r.Dists[j]}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// checkRows requires one row of exactly k results per query and returns
// recall against truth.
func checkRows(w workload, rows [][]topk.Result, truth [][]int32) (float64, error) {
	if len(rows) != len(truth) {
		return 0, failf("result_count", "%d result rows for %d queries", len(rows), len(truth))
	}
	for i, row := range rows {
		if len(row) != topK {
			return 0, failf("result_count", "query %d returned %d results, want %d", i, len(row), topK)
		}
	}
	recall := metrics.MeanRecall(rows, truth)
	if recall < w.recallFloor {
		return recall, failf("recall", "recall@%d %.4f under the floor %.2f", topK, recall, w.recallFloor)
	}
	return recall, nil
}

// liveSet is the corpus after the acknowledged writes: original points
// minus deleted IDs plus upserted points.
func liveSet(c *corpus, log writeLog) *vec.Dataset {
	dead := log.dead()
	live := vec.NewDataset(dim, c.ds.Len()+len(log.upserted))
	for i := 0; i < c.ds.Len(); i++ {
		if id := c.ds.ID(i); !dead[id] {
			live.Append(c.ds.At(i), id)
		}
	}
	for _, p := range log.upserted {
		live.Append(p.vec, p.id)
	}
	return live
}

// reopenCheck closes the store, recovers it from disk, and checks the
// recovered engine against the acknowledged writes: every point is
// there, a sample of upserted points is found by its own vector,
// deleted IDs never surface.
func reopenCheck(t *topology, c *corpus, log writeLog) error {
	dir := t.dur.Dir()
	if err := t.dur.Close(); err != nil {
		return failf("store_close", "%v", err)
	}
	t.dur = nil
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		return failf("store_reopen", "%v", err)
	}
	defer d.Close()
	eng := d.Engine()
	if want := c.ds.Len() + len(log.upserted); eng.Len() != want {
		return failf("reopen_len", "Engine.Len() %d after reopen, want %d (%d acked upserts)", eng.Len(), want, len(log.upserted))
	}
	dead := log.dead()
	sample, found := 0, 0
	step := max(1, len(log.upserted)/64)
	for i := 0; i < len(log.upserted); i += step {
		p := log.upserted[i]
		rs, err := eng.Search(p.vec, topK)
		if err != nil {
			return failf("reopen_search", "%v", err)
		}
		sample++
		for _, r := range rs {
			if r.ID == p.id {
				found++
			}
			if dead[r.ID] {
				return failf("reopen_deleted", "deleted id %d returned after reopen", r.ID)
			}
		}
	}
	// The index is approximate, so a rare miss of a point's own vector
	// is not a durability failure; a lost WAL tail would miss them all.
	if sample > 0 && float64(found) < 0.9*float64(sample) {
		return failf("reopen_upserts", "%d of %d sampled acked upserts searchable after reopen", found, sample)
	}
	vs := c.verifySet()
	for i := 0; i < vs.Len(); i++ {
		rs, err := eng.Search(vs.At(i), topK)
		if err != nil {
			return failf("reopen_search", "%v", err)
		}
		for _, r := range rs {
			if dead[r.ID] {
				return failf("reopen_deleted", "deleted id %d returned after reopen", r.ID)
			}
		}
	}
	return nil
}
