package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/vec"
)

// runConfig is one invocation's shape. The defaults are BENCHMARK.json's;
// the smoke test shrinks them.
type runConfig struct {
	seed    int64
	points  int
	pool    int           // query-pool size (single-query request bodies)
	warmup  time.Duration // untimed load before the measured phase
	measure time.Duration
	setups  int // timed set-ups per run; setup_s is their median
	probe   int // upsert POSTs of a read-only workload's write probe
	trace   bool
	outDir  string
	log     io.Writer // progress and the human-readable metric table
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// report is the outcome of one workload run.
type report struct {
	workload  string
	attempted int64
	failed    int64
	err       error // first failed correctness check, nil when correct
	metrics   []metric
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) get(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// body is the workload's op-th search request over queries: queries
// [op*batch, (op+1)*batch) of the set, with texts[op] on the hybrid route.
func (w workload) body(queries *vec.Dataset, texts []string, op int) []byte {
	switch {
	case w.batch > 1:
		return batchBody(queries, op*w.batch, (op+1)*w.batch)
	case w.lexical:
		return hybridBody(queries.At(op), texts[op])
	case w.tagged:
		return searchBody(queries.At(op), filter01)
	default:
		return searchBody(queries.At(op), "")
	}
}

// searchPool frames the workload's search traffic from the query pool.
// Its head is the verification sample.
func searchPool(w workload, c *corpus) [][]byte {
	pool := make([][]byte, c.queries.Len()/w.batch)
	for op := range pool {
		pool[op] = httpRequest(nil, w.path, w.body(c.queries, c.qtexts, op))
	}
	return pool
}

// streams builds one traffic stream per client. mixed_rw's hot set is
// the head of the pool; its cold stream takes the rest.
func streams(w workload, c *corpus, pool [][]byte) []traffic {
	out := make([]traffic, w.conns)
	for i := range out {
		if !w.durable {
			out[i] = &poolTraffic{pool: pool, pos: i, step: w.conns, ops: w.batch}
			continue
		}
		n := int64(c.ds.Len())
		var del []int64
		perm := rand.New(rand.NewSource(c.seed + 7)).Perm(c.ds.Len())
		for j := i; j < len(perm); j += w.conns {
			del = append(del, c.ds.ID(perm[j]))
		}
		out[i] = &mixedTraffic{
			c:      c,
			rng:    rand.New(rand.NewSource(c.seed + 11 + int64(i))),
			hot:    pool[:hotQueries],
			cold:   &poolTraffic{pool: pool[hotQueries:], pos: i, step: w.conns, ops: 1},
			i:      i * 7,
			nextID: n + int64(i),
			idStep: int64(w.conns),
			delIDs: del,
		}
	}
	return out
}

func mergedLog(ss []traffic) writeLog {
	var log writeLog
	for _, s := range ss {
		if m, ok := s.(*mixedTraffic); ok {
			log.upserted = append(log.upserted, m.log.upserted...)
			log.deleted = append(log.deleted, m.log.deleted...)
		}
	}
	return log
}

// writeProbe measures upsert ack latency on a read-only workload's
// topology: posts POSTs of 4 points after everything else has been
// measured and verified, each point written the way the topology
// stores points (tagged, with text, or plain).
func writeProbe(w workload, c *corpus, cn *conn, posts int) ([]float64, error) {
	rng := rand.New(rand.NewSource(c.seed + 13))
	id := int64(c.ds.Len()) + 1<<20
	var lats []float64
	var body, req []byte
	for i := 0; i < posts; i++ {
		pts := make([]upsertPoint, upsertPoints)
		for j := range pts {
			pts[j] = upsertPoint{id: id, vec: c.newPointVector(rng, nil)}
			if w.tagged {
				pts[j].tags = tagsFor(id)
			}
			if w.lexical {
				pts[j].text = c.texts[rng.Intn(len(c.texts))]
			}
			id++
		}
		body = upsertBody(body, pts)
		req = httpRequest(req, "/v1/upsert", body)
		t0 := time.Now()
		status, err := cn.do(req, nil)
		if err != nil || status != 200 {
			return nil, failf("write_probe", "upsert POST %d: status %d, err %v", i, status, err)
		}
		lats = append(lats, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return lats, nil
}

// runWorkload runs one workload start to finish. A failed correctness
// check is returned in report.err with whatever was measured before it;
// the error return is for the benchmark's own failures.
func runWorkload(w workload, cfg runConfig) (*report, error) {
	rep := &report{workload: w.name}
	mflopsStart := refMflops()

	// 1. Inputs and request pool, untimed.
	c, err := newCorpus(cfg.points, cfg.pool, cfg.seed, w.lexical || cfg.trace)
	if err != nil {
		return nil, err
	}
	pool := searchPool(w, c)
	fmt.Fprintf(cfg.log, "# %s seed %d: %s, %d pooled requests, ref %.0f Mflop/s\n", w.name, cfg.seed, c, len(pool), mflopsStart)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}

	// 2. Set-up, timed. Earlier topologies are torn down so only the last
	// is live when the heap is read.
	heapBefore := heapAlloc()
	var topo *topology
	var setupSecs []float64
	for i := 0; i < cfg.setups; i++ {
		if topo != nil {
			if err := topo.close(); err != nil {
				return nil, err
			}
		}
		if topo, err = setup(w, c, cfg.outDir, cfg.trace); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, topo.times.total.Seconds())
	}
	defer func() { topo.close() }()

	conns := make([]*conn, w.conns)
	for i := range conns {
		if conns[i], err = dial(topo.addr); err != nil {
			return nil, err
		}
		defer conns[i].close()
	}
	ss := streams(w, c, pool)

	// 3. Warm-up, then the measured phase.
	warm := runPhase(conns, ss, cfg.warmup)
	warm.samples = nil
	measure := cfg.measure
	if cfg.trace {
		// A traced run spends the other half of its time in the replays.
		measure /= 2
	}
	load := runPhase(conns, ss, measure)
	// The heap reading is the server's: take off what the generator has
	// come to hold since the first reading, its samples and its log of
	// written vectors.
	heap := float64(heapAlloc()) - float64(heapBefore) - float64(load.heldBytes())
	log := mergedLog(ss)
	heap -= float64(len(log.upserted) * dim * 4)
	mflopsEnd := refMflops()

	rep.attempted = warm.requests + load.requests
	rep.failed = warm.fails + load.fails
	if rep.failed > 0 {
		rep.err = failf("error_rate", "%d of %d requests failed; first: %v", rep.failed, rep.attempted, firstErr(warm.firstErr, load.firstErr))
		return rep, nil
	}
	sum := load.summarize()
	if math.IsNaN(sum.p50) {
		return nil, fmt.Errorf("measured phase of %v completed no search", measure)
	}

	// 4. Verification, untimed.
	rows, err := verifyReplies(w, pool[:verifyQueries/w.batch], conns[0])
	if err != nil {
		rep.err = err
		return rep, nil
	}
	var truth [][]int32
	switch {
	case w.tagged:
		truth = c.filteredTruth(selTiers[0], c.verifySet())
	case w.lexical:
		truth = c.hybridTruth(c.verifySet())
	default:
		truth = plainTruth(liveSet(c, log), c.verifySet())
	}
	recall, err := checkRows(w, rows, truth)
	if err != nil {
		rep.err = err
		return rep, nil
	}
	dead := log.dead()
	for i, row := range rows {
		for _, r := range row {
			if dead[r.ID] {
				rep.err = failf("deleted_id", "query %d returned deleted id %d", i, r.ID)
				return rep, nil
			}
		}
	}

	// 5. Write latency: mixed_rw measured it under load; the read-only
	// workloads probe their write path now that nothing else depends on
	// the engine's contents. A traced run reports no write latency and
	// traces the engine as it was measured, without the probe's points.
	switch {
	case w.durable:
		if math.IsNaN(sum.upsertP50) {
			return nil, fmt.Errorf("measured phase of %v acknowledged no upsert POST", measure)
		}
	case !cfg.trace:
		lats, err := writeProbe(w, c, conns[0], cfg.probe)
		if err != nil {
			rep.err = err
			return rep, nil
		}
		sum.upsertP50 = median(lats)
	}

	var tr *tracer
	if cfg.trace {
		if tr, err = traceLayers(c, topo, cfg.outDir, sum, warm.writePosts+load.writePosts, rep); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		rep.add("machine.ref_mflops_start", "Mflop/s", mflopsStart)
		rep.add("machine.ref_mflops_end", "Mflop/s", mflopsEnd)
	}

	// 6. Tear down; mixed_rw recovers its store from disk first.
	if err := topo.stopServing(); err != nil {
		return nil, err
	}
	if w.durable {
		if err := reopenCheck(topo, c, log); err != nil {
			rep.err = err
			return rep, nil
		}
	}
	if cfg.trace {
		return rep, tr.write(cfg.outDir, w.name)
	}
	rep.add("setup_s", "s", median(setupSecs))
	rep.add("qps", "1/s", sum.qps)
	rep.add("p50_ms", "ms", sum.p50)
	rep.add("p90_ms", "ms", sum.p90)
	rep.add("write_p50_ms", "ms", sum.upsertP50)
	rep.add("cpu_ms_per_op", "ms", sum.cpuPerOp)
	rep.add("recall_at_10", "ratio", recall)
	rep.add("heap_mb", "MB", heap/(1<<20))
	fmt.Fprintf(cfg.log, "# %s: %d operations in %d search POSTs and %d write POSTs over %v, medians of %d windows; %d requests, 0 failed; ref %.0f Mflop/s\n",
		w.name, load.ops, sum.searches, load.writePosts, measure, windows, rep.attempted, mflopsEnd)
	return rep, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
