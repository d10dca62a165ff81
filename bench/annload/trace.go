package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/fusion"
	"repro/internal/hnsw"
	"repro/internal/serve"
	"repro/internal/topk"
	"repro/internal/vec"
)

// The trace is taken from outside: no code outside bench/ changes, so a
// traced run replays a fixed sample of the workload's operations at each
// shell of the stack, outermost first, and records one span per replay.
// A shell's self time is its duration minus its child shells' (selfUS).
// End-to-end metrics never come from a traced run.

const (
	// traceOps is the sample of single-query operations replayed at each
	// shell; traceBatches is the sample of 64-query rounds.
	traceOps     = 256
	traceBatches = 64
	batchQueries = 64
)

// span is one replay of one operation at one shell.
type span struct {
	Op     int              `json:"op_id"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Parent string           `json:"parent,omitempty"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// record times f as one span.
func (t *tracer) record(op int, name, parent string, f func() (map[string]int64, error)) error {
	start := time.Now()
	counts, err := f()
	end := time.Now()
	if err != nil {
		return fmt.Errorf("%s op %d: %w", name, op, err)
	}
	t.spans = append(t.spans, span{
		Op: op, Name: name, Parent: parent, Counts: counts,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return nil
}

// shell is one layer boundary of a replay: run replays operation op
// there and records its spans.
type shell func(op int) error

// span1 is the usual shell: one span per operation around f.
func (t *tracer) span1(name, parent string, f func(op int) (map[string]int64, error)) shell {
	return func(op int) error {
		return t.record(op, name, parent, func() (map[string]int64, error) { return f(op) })
	}
}

// replayLag staggers the shells of a replay.
const replayLag = 8

// replay runs the sample through the shells, outermost first, shell j
// working on an operation replayLag operations after shell j-1 did.
// Whichever shell touches a query's graph neighbourhood first pays for
// the cache misses (about 2x on this corpus), so replaying the shells
// back to back on one operation makes every inner shell look cheap and
// every self time large; replaying whole passes one after another puts
// seconds of machine drift between the two sides of a subtraction.
func (t *tracer) replay(ops int, shells ...shell) error {
	for i := 0; i < ops+replayLag*(len(shells)-1); i++ {
		for j, run := range shells {
			if op := i - j*replayLag; op >= 0 && op < ops {
				if err := run(op); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// perOp sums, per operation, the duration in µs of the spans called
// name (an operation may have several, one per partition searched).
func (t *tracer) perOp(name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += float64(s.End-s.Start) / 1e3
		}
	}
	return out
}

// medianUS is the median duration of the spans called name, in µs.
func (t *tracer) medianUS(name string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e3)
		}
	}
	return median(ds)
}

// selfUS is a shell's self time in µs: per operation, the shell's
// duration minus its child shells' on the same operation; the median
// over the sample. Pairing by operation cancels the spread between
// cheap and costly queries, which is larger than most self times.
func (t *tracer) selfUS(shell string, children ...string) float64 {
	self := t.perOp(shell)
	for _, c := range children {
		for op, d := range t.perOp(c) {
			self[op] -= d
		}
	}
	ds := make([]float64, 0, len(self))
	for _, d := range self {
		ds = append(ds, d)
	}
	return median(ds)
}

// meanCount is the mean of one count over the spans called name.
func (t *tracer) meanCount(name, key string) float64 {
	var sum, n float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.Counts[key])
			n++
		}
	}
	return sum / n
}

// write stores the spans as JSON lines in dir/trace-<workload>.jsonl.
func (t *tracer) write(dir, workload string) error {
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// partSearcher is what both a partition's dynamic graph and its frozen
// view offer.
type partSearcher interface {
	Search(q []float32, k int) ([]topk.Result, hnsw.Stats, error)
	SearchFiltered(q []float32, k int, keep func(int64) bool) ([]topk.Result, hnsw.Stats, error)
}

// prober holds what the layer probes share.
type prober struct {
	t      *tracer
	w      workload
	c      *corpus
	topo   *topology
	rep    *report
	fresh  *vec.Dataset // sample queries no cache has seen
	nprobe int
	fetch  int // per-partition k the engine asks for (k plus tombstone over-fetch)
}

// traceLayers runs the traced half of a run and adds the per-layer
// metrics to rep. sum is the load phase's summary, writePosts the write
// POSTs acknowledged so far.
func traceLayers(c *corpus, topo *topology, outDir string, sum loadSummary, writePosts int64, rep *report) (*tracer, error) {
	p := &prober{
		t:      &tracer{t0: time.Now()},
		w:      topo.w,
		c:      c,
		topo:   topo,
		rep:    rep,
		fresh:  dataset.PerturbedQueries(c.ds, traceBatches*batchQueries, 4, c.seed+2),
		nprobe: core.DefaultConfig(partitions).NProbe,
	}
	p.fetch = topK + min(topo.eng.Tombstones(), 3*topK)

	p.gatewayCounters(sum, writePosts)
	if err := p.outerShells(sum); err != nil {
		return nil, err
	}
	if err := p.engineProbes(); err != nil {
		return nil, err
	}
	if err := p.buildProbes(); err != nil {
		return nil, err
	}
	if err := p.storeProbe(outDir); err != nil {
		return nil, err
	}
	if err := p.clusterProbe(); err != nil {
		return nil, err
	}
	if err := p.collectionProbe(outDir); err != nil {
		return nil, err
	}
	if err := p.kernelProbes(); err != nil {
		return nil, err
	}
	rep.add("lexical.set.us_per_doc", "us", float64(topo.times.texts.Microseconds())/float64(c.ds.Len()))
	rep.add("lexical.heap_mb", "MB", topo.times.textHeapMB)
	return p.t, nil
}

// gatewayCounters reads what the load phases left in the server's own
// counters and the clients' samples.
func (p *prober) gatewayCounters(sum loadSummary, writePosts int64) {
	snap := p.topo.srv.Stats().Snapshot()
	hits, lookups := snap.CacheHits, snap.CacheHits+snap.CacheMisses
	if p.w.lexical {
		hits, lookups = snap.HybridCacheHits, snap.HybridRequests
	}
	p.rep.add("serve.batcher.mean_batch", "count", snap.MeanBatchSize)
	p.rep.add("serve.cache.hit_ratio", "ratio", float64(hits)/float64(max(lookups, 1)))
	// Every acknowledged write POST purges the tenant's caches once.
	p.rep.add("serve.cache.purges", "count", float64(writePosts))
	p.rep.add("serve.request.p99_ms", "ms", sum.p99)
	p.rep.add("serve.shed", "count", float64(snap.Shed))
}

// outerShells replays the workload's own search operation at the HTTP
// round trip, the handler on an in-memory recorder, the batcher, and the
// backend round.
func (p *prober) outerShells(sum loadSummary) error {
	w, t := p.w, p.t
	ops := traceOps
	if w.batch > 1 {
		ops = traceBatches
	}
	cn, err := dial(p.topo.addr)
	if err != nil {
		return err
	}
	defer cn.close()
	// The shadow server and batcher share the live backend but have
	// caches and queues of their own, so each shell sees each sample
	// operation for the first time.
	shadow := serve.NewServer(p.topo.backend, p.topo.cfg)
	batcher := serve.NewBatcher(p.topo.backend, serve.BatcherConfig{}, nil)
	ctx := context.Background()
	defer func() {
		dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		shadow.Drain(dctx)
		batcher.Drain(dctx)
		cancel()
	}()
	var flt *filter.Expr
	if w.tagged {
		flt = filter.MustParse(filter01)
	}
	queries := func(op int) *vec.Dataset { return p.fresh.Slice(op*w.batch, (op+1)*w.batch) }
	bodies := make([][]byte, ops)
	for op := range bodies {
		bodies[op] = w.body(p.fresh, p.c.qtexts, op)
	}

	httpShell := t.span1("http", "", func(op int) (map[string]int64, error) {
		status, err := cn.do(httpRequest(nil, w.path, bodies[op]), nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		return nil, err
	})
	handlerShell := t.span1("handler", "http", func(op int) (map[string]int64, error) {
		rec := httptest.NewRecorder()
		shadow.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, w.path, bytes.NewReader(bodies[op])))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.String())
		}
		return nil, nil
	})
	if w.lexical {
		// Hybrid requests bypass the micro-batcher: the handler calls the
		// backend itself.
		backendShell := t.span1("backend", "handler", func(op int) (map[string]int64, error) {
			_, err := p.topo.backend.SearchHybrid(ctx, p.fresh.At(op), p.c.qtexts[op], topK, core.HybridOptions{})
			return nil, err
		})
		if err := t.replay(ops, httpShell, handlerShell, backendShell); err != nil {
			return err
		}
		p.rep.add("serve.handler.self_us", "us", t.selfUS("handler", "backend"))
		p.rep.add("serve.batcher.wait_us", "us", 0)
	} else {
		batcherShell := t.span1("batcher", "handler", func(op int) (map[string]int64, error) {
			// As the handler does: one submission per query, concurrent
			// when the POST carries several.
			qs := queries(op)
			errs := make([]error, qs.Len())
			var wg sync.WaitGroup
			for i := 0; i < qs.Len(); i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, _, errs[i] = batcher.DoFiltered(ctx, qs.At(i), topK, flt)
				}(i)
			}
			wg.Wait()
			return nil, firstErr(errs...)
		})
		backendShell := t.span1("backend", "batcher", func(op int) (map[string]int64, error) {
			var err error
			if flt != nil {
				_, err = p.topo.backend.SearchBatchFiltered(ctx, queries(op), topK, flt)
			} else {
				_, err = p.topo.backend.SearchBatch(ctx, queries(op), topK)
			}
			return nil, err
		})
		if err := t.replay(ops, httpShell, handlerShell, batcherShell, backendShell); err != nil {
			return err
		}
		p.rep.add("serve.handler.self_us", "us", t.selfUS("handler", "batcher"))
		p.rep.add("serve.batcher.wait_us", "us", t.selfUS("batcher", "backend"))
	}
	p.rep.add("serve.http.transport_us", "us", t.selfUS("http", "handler"))
	p.rep.add("trace.overhead_ratio", "ratio", t.medianUS("http")/1e3/sum.p50)
	return nil
}

// graphLeg is the per-partition graph shell: the sample query's routed
// partitions searched one by one, one span per partition search. A
// non-nil keep makes it a filtered search and counts the IDs it admits.
func (p *prober) graphLeg(name, parent string, ss []partSearcher, keep func(int64) bool) shell {
	tree := p.topo.eng.Tree()
	return func(op int) error {
		q := p.fresh.At(op)
		for _, rt := range tree.RouteTop(q, p.nprobe) {
			s := ss[rt.Partition]
			if err := p.t.record(op, name, parent, func() (map[string]int64, error) {
				var st hnsw.Stats
				var err error
				admitted := int64(0)
				if keep != nil {
					_, st, err = s.SearchFiltered(q, p.fetch, func(id int64) bool {
						ok := keep(id)
						if ok {
							admitted++
						}
						return ok
					})
				} else {
					_, st, err = s.Search(q, p.fetch)
				}
				return map[string]int64{
					"dist": st.DistComps, "hops": st.Hops, "quant": st.QuantComps,
					"rerank": st.Reranked, "admitted": admitted,
				}, err
			}); err != nil {
				return err
			}
		}
		return nil
	}
}

// engineProbes measures the engine's read paths and the layers under
// them on the workload's own engine: plain, batched, filtered at three
// selectivities, and hybrid search; routing; per-partition graph search
// on the dynamic graphs and on frozen SQ8 views rebuilt from them.
func (p *prober) engineProbes() error {
	t, eng, rep := p.t, p.topo.eng, p.rep
	nparts := eng.Partitions()
	dyn := make([]partSearcher, nparts)
	frozen := make([]partSearcher, nparts)
	var freeze time.Duration
	var arena int64
	for i := 0; i < nparts; i++ {
		g, ok := eng.PartitionGraph(i)
		if !ok {
			return fmt.Errorf("partition %d is not an HNSW graph", i)
		}
		dyn[i] = g
		t0 := time.Now()
		f, err := g.Freeze(hnsw.FreezeOptions{SQ8: true})
		if err != nil {
			return err
		}
		freeze += time.Since(t0)
		arena += f.ArenaBytes()
		frozen[i] = f
	}
	rep.add("index.freeze.s", "s", freeze.Seconds())
	rep.add("index.frozen.arena_mb", "MB", float64(arena)/(1<<20))
	// The legs the engine itself runs: the flat layout when frozen.
	leg, filteredLeg := "hnsw.dynamic", "hnsw.filtered_s01"
	if p.w.frozen {
		leg, filteredLeg = "hnsw.frozen_sq8", "hnsw.frozen_filtered_s01"
	}

	// Plain search: engine, routing, and both graph layouts.
	if err := t.replay(traceOps,
		t.span1("engine.search", "backend", func(op int) (map[string]int64, error) {
			_, st, err := eng.SearchStats(p.fresh.At(op), topK)
			return map[string]int64{"dist": st.DistComps, "hops": st.Hops}, err
		}),
		t.span1("route", "engine.search", func(op int) (map[string]int64, error) {
			_, n := eng.Tree().RouteTopStats(p.fresh.At(op), p.nprobe)
			return map[string]int64{"dist": int64(n)}, nil
		}),
		p.graphLeg("hnsw.dynamic", "engine.search", dyn, nil),
		p.graphLeg("hnsw.frozen_sq8", "engine.search", frozen, nil),
	); err != nil {
		return err
	}
	rep.add("vptree.route.us_per_query", "us", t.medianUS("route"))
	rep.add("vptree.route.dist_per_query", "count", t.meanCount("route", "dist"))
	rep.add("hnsw.dynamic.us_per_search", "us", t.medianUS("hnsw.dynamic"))
	rep.add("hnsw.dynamic.dist_per_search", "count", t.meanCount("hnsw.dynamic", "dist"))
	rep.add("hnsw.dynamic.hops_per_search", "count", t.meanCount("hnsw.dynamic", "hops"))
	rep.add("hnsw.frozen_sq8.us_per_search", "us", t.medianUS("hnsw.frozen_sq8"))
	rep.add("hnsw.frozen_sq8.quant_per_search", "count", t.meanCount("hnsw.frozen_sq8", "quant"))
	rep.add("hnsw.frozen_sq8.rerank_per_search", "count", t.meanCount("hnsw.frozen_sq8", "rerank"))
	rep.add("core.search.self_us", "us", t.selfUS("engine.search", "route", leg))

	// Batched search: full rounds, against the same queries one by one.
	if err := t.replay(traceBatches, t.span1("engine.batch", "backend", func(r int) (map[string]int64, error) {
		_, err := eng.SearchBatch(p.fresh.Slice(r*batchQueries, (r+1)*batchQueries), topK, 0)
		return nil, err
	})); err != nil {
		return err
	}
	single, round := t.perOp("engine.search"), t.perOp("engine.batch")
	threads := float64(runtime.GOMAXPROCS(0))
	var eff []float64
	for r := 0; (r+1)*batchQueries <= traceOps; r++ {
		sum := 0.0
		for op := r * batchQueries; op < (r+1)*batchQueries; op++ {
			sum += single[op]
		}
		eff = append(eff, sum/(threads*round[r]))
	}
	rep.add("core.search_batch.us_per_query", "us", t.medianUS("engine.batch")/batchQueries)
	rep.add("core.search_batch.parallel_eff", "ratio", median(eff))

	// Filtered search at 1%, 10% and 100% selectivity. The 1% tier, the
	// one a workload serves, is also replayed at the engine.
	for ti, tier := range selTiers {
		f := filter.MustParse(tier.filter)
		keep := eng.FilterPredicate(f)
		name := "hnsw.filtered_" + tier.name
		shells := []shell{p.graphLeg(name, "engine.filtered", dyn, keep)}
		if ti == 0 {
			shells = []shell{
				t.span1("engine.filtered", "backend", func(op int) (map[string]int64, error) {
					_, st, err := eng.SearchFilteredStats(p.fresh.At(op), topK, f)
					return map[string]int64{"dist": st.DistComps, "hops": st.Hops}, err
				}),
				shells[0],
			}
			if p.w.frozen {
				// The frozen engine filters on its flat layout; time that
				// leg for the self time, without a metric of its own.
				shells = append(shells, p.graphLeg(filteredLeg, "engine.filtered", frozen, keep))
			}
		}
		if err := t.replay(traceOps, shells...); err != nil {
			return err
		}
		rep.add(name+".us_per_search", "us", t.medianUS(name))
		if ti == 0 {
			rep.add(name+".dist_per_search", "count", t.meanCount(name, "dist"))
			rep.add(name+".admit_ratio", "ratio", t.meanCount(name, "admitted")/t.meanCount(name, "hops"))
			rep.add("core.filtered.self_us", "us", t.selfUS("engine.filtered", "route", filteredLeg))
		}
	}

	// Hybrid search and its legs.
	vecLegs := make([][]fusion.Candidate, traceOps)
	lexLegs := make([][]fusion.Candidate, traceOps)
	if err := t.replay(traceOps,
		t.span1("engine.hybrid", "backend", func(op int) (map[string]int64, error) {
			_, err := eng.SearchHybrid(p.fresh.At(op), p.c.qtexts[op], topK, core.HybridOptions{})
			return nil, err
		}),
		t.span1("hybrid.vector_leg", "engine.hybrid", func(op int) (map[string]int64, error) {
			rs, err := eng.Search(p.fresh.At(op), legK)
			for _, r := range rs {
				vecLegs[op] = append(vecLegs[op], fusion.Candidate{ID: r.ID, Score: -float64(r.Dist)})
			}
			return nil, err
		}),
		t.span1("hybrid.lexical_leg", "engine.hybrid", func(op int) (map[string]int64, error) {
			for _, s := range eng.SearchLexical(p.c.qtexts[op], legK, nil) {
				lexLegs[op] = append(lexLegs[op], fusion.Candidate{ID: s.ID, Score: s.Score})
			}
			return map[string]int64{"hits": int64(len(lexLegs[op]))}, nil
		}),
		t.span1("hybrid.fuse", "engine.hybrid", func(op int) (map[string]int64, error) {
			fusion.RRF(0, topK, vecLegs[op], lexLegs[op])
			return nil, nil
		}),
	); err != nil {
		return err
	}
	rep.add("core.hybrid.self_us", "us", t.selfUS("engine.hybrid", "hybrid.vector_leg", "hybrid.lexical_leg", "hybrid.fuse"))
	rep.add("lexical.search.us_per_query", "us", t.medianUS("hybrid.lexical_leg"))
	rep.add("lexical.search.postings_per_query", "count", p.c.postingsPerQuery(traceOps))
	rep.add("fusion.rrf.us_per_call", "us", t.medianUS("hybrid.fuse"))
	return nil
}
