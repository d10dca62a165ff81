package core

import (
	"errors"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/topk"
	"repro/internal/vec"
	"repro/internal/vptree"
)

// The master's batch protocol (Algorithm 3, and 5 when Replication > 1).
//
// Every batch runs in numbered rounds. Round 1 sends a header to every
// live worker, routes each query and dispatches its (query, partition)
// tasks with Algorithm 5's per-core round robin, sends End-of-Queries,
// and collects each worker's results and Done. Collection watches the
// workers it waits for, so a dead worker is dropped at once; with
// QueryTimeout > 0 it also stops at the round deadline. A task lost to
// a dead, erroring or unresponsive worker is retried, with exponential
// backoff and at most MaxRetries rounds, on the next worker of its
// partition's workgroup. When no replica is left the batch completes
// anyway, flagged Degraded with the failed partitions identified.
//
// Correctness hinges on three rules:
//
//  1. Rounds are numbered (batchHeader.Seq) and workers echo the number
//     in every result and Done, so stale traffic is recognized.
//  2. A worker that missed its round deadline is "lagging": it gets no
//     new header until its Done (with the old Seq) arrives, so its
//     in-flight threads can never consume queries of a newer round.
//  3. A task takes at most one answer: a lagging worker's late answer
//     and a replica's retried answer cannot both reach the collector.
//
// With OneSided, round 1's results go through the one-sided window
// instead of result messages. Windows and barriers are not failure-safe
// (a dead rank wedges the dissemination barrier), so a batch uses the
// window only when QueryTimeout is 0 and every worker is alive, and
// retry rounds are always two-sided; a worker that dies mid-batch still
// breaks the window's closing barrier. The window cannot say which
// tasks a short Done left out, and topk.Collector does not
// de-duplicate, so the tasks of a worker whose Done reports fewer tasks
// than it was sent are not retried: their partitions are reported
// failed.

// task is one routed (query, partition) pair of a batch.
type task struct {
	qi     uint32
	part   int32
	rot    int32 // workgroup offset the round robin chose
	walked int32 // workgroup offsets consumed by attempts and skips
	worker int32 // rank round 1 sent it to, 0 if none
	done   bool  // answered (or, one-sided, covered by its worker's Done)
}

// batch carries the mutable state of one batch.
type batch struct {
	res        *BatchResult
	collectors []*topk.Collector
	tasks      []task
	first      []int32 // query qi's tasks are tasks[first[qi]:first[qi+1]]
	pending    int     // tasks not yet done
	sent       []int64 // round-1 tasks per worker rank not covered by a Done
	acc        int64   // one-sided accumulates announced by the Dones
	batchStart uint32  // Seq of the batch's first round
}

// replicaRank is the worker rank hosting core (part+off) mod P, the
// off-th member of partition part's workgroup W_part.
func (d *Distributed) replicaRank(part, off int) int {
	return ((part+off)%d.cfg.Partitions)/d.cfg.CoresPerNode + 1
}

// assign continues t's walk over its workgroup from the offset the
// round robin chose, and returns the first rank that is alive, not
// lagging and not passed over earlier in the walk (CoresPerNode > 1 can
// put several cores of a workgroup on one rank), or -1 when the
// workgroup is exhausted.
func (d *Distributed) assign(t *task) int {
	r := int32(d.cfg.Replication)
	part := int(t.part)
walk:
	for t.walked < r {
		w := d.replicaRank(part, int((t.rot+t.walked)%r))
		t.walked++
		if d.lagging[w] || d.comm.IsDown(w) {
			continue
		}
		for j := int32(0); j < t.walked-1; j++ {
			if d.replicaRank(part, int((t.rot+j)%r)) == w {
				continue walk
			}
		}
		return w
	}
	return -1
}

// UnionPartitions merges two failed-partition lists into one
// deduplicated, ascending list. Shared by the master's two-phase search
// and the serving gateway's shard router, both of which accumulate
// failed partitions across rounds.
func UnionPartitions(a, b []int) []int {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	seen := make(map[int]bool, len(a)+len(b))
	var out []int
	for _, x := range a {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for _, x := range b {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// drainQueued absorbs every queued result/Done without blocking: late
// answers from lagging workers resolve pending tasks for free, and stale
// Dones clear the lagging flag so those workers become eligible again.
func (m *Master) drainQueued(b *batch) {
	c := m.d.comm
	for {
		pay, st, ok, err := c.TryRecv(cluster.Any, tagDone)
		if err != nil || !ok {
			break
		}
		if dn, err := decodeDone(pay); err == nil {
			m.d.lagging[st.Source] = false
			if b != nil && dn.Seq >= b.batchStart {
				b.noteDone(st.Source, dn)
			}
		}
	}
	for {
		pay, _, ok, err := c.TryRecv(cluster.Any, tagResult)
		if err != nil || !ok {
			break
		}
		if rm, err := decodeResult(pay); err == nil && b != nil {
			b.noteResult(rm)
		}
	}
}

func (b *batch) noteDone(source int, dn workerDone) {
	b.res.PerWorkerQueries[source-1] += dn.Processed
	b.res.PerWorkerDistComps[source-1] += dn.DistComps
	b.res.PerWorkerHops[source-1] += dn.Hops
	b.res.Work.DistComps += dn.DistComps
	b.res.Work.Hops += dn.Hops
	b.acc += dn.Accumulates
	if dn.Seq == b.batchStart {
		b.sent[source] -= dn.Processed
	}
}

func (b *batch) noteResult(rm resultMsg) {
	if rm.Seq < b.batchStart || int(rm.QueryID) >= len(b.collectors) {
		return // leftover from an earlier batch
	}
	for i := b.first[rm.QueryID]; i < b.first[rm.QueryID+1]; i++ {
		t := &b.tasks[i]
		if t.part != rm.Partition {
			continue
		}
		if t.done {
			return // duplicate: a lagging worker and its replica both answered
		}
		t.done = true
		b.pending--
		for _, x := range rm.Results {
			b.collectors[rm.QueryID].PushResult(x)
		}
		return
	}
}

// collectRound receives results and Dones until every worker in waitDone
// has closed round roundSeq, the deadline passes (remaining workers are
// marked lagging; a zero deadline never passes), or a watched worker
// dies (it is dropped and the loop continues). Only ErrClosed-style hard
// failures are returned.
func (m *Master) collectRound(b *batch, waitDone []int, roundSeq uint32, deadline time.Time) error {
	d := m.d
	c := d.comm
	drop := func(w int) {
		waitDone = slices.DeleteFunc(waitDone, func(x int) bool { return x == w })
	}
	for len(waitDone) > 0 {
		var timeout time.Duration
		if !deadline.IsZero() {
			timeout = max(time.Until(deadline), time.Millisecond)
		}
		pay, st, err := c.RecvTagsWatch(cluster.Any, timeout, waitDone, tagResult, tagDone)
		if err != nil {
			if errors.Is(err, cluster.ErrTimeout) {
				for _, w := range waitDone {
					d.lagging[w] = true
				}
				d.cfg.Trace.Emitf(0, "fault", "round %d timed out waiting for %v", roundSeq, waitDone)
				return nil
			}
			var pd *cluster.PeerDownError
			if errors.As(err, &pd) {
				d.cfg.Trace.Emitf(0, "fault", "worker %d died during round %d", pd.Rank, roundSeq)
				drop(pd.Rank)
				continue
			}
			return err
		}
		switch st.Tag {
		case tagDone:
			dn, err := decodeDone(pay)
			if err != nil {
				continue
			}
			d.lagging[st.Source] = false
			if dn.Seq >= b.batchStart {
				b.noteDone(st.Source, dn)
			}
			// A lagging worker closing an old round still owes this one.
			if dn.Seq == roundSeq {
				drop(st.Source)
			}
		case tagResult:
			rm, err := decodeResult(pay)
			if err != nil {
				continue
			}
			b.noteResult(rm)
		}
	}
	return nil
}

// roundDeadline bounds a collection round by QueryTimeout; the zero
// time (QueryTimeout = 0) means no deadline.
func (d *Distributed) roundDeadline() time.Time {
	if d.cfg.QueryTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d.cfg.QueryTimeout)
}

// searchBatch routes every query with route, dispatches the tasks,
// collects the answers, and retries lost tasks on workgroup replicas.
func (m *Master) searchBatch(queries *vec.Dataset, route func(qi int, q []float32) []vptree.Route) (*BatchResult, error) {
	d := m.d
	c := d.comm
	nq := queries.Len()
	k := d.cfg.K
	p := d.cfg.Partitions
	workers := c.Size() - 1
	t0 := time.Now()

	if d.lagging == nil {
		d.lagging = make([]bool, c.Size())
	}
	res := &BatchResult{
		Results:            make([][]topk.Result, nq),
		PerWorkerQueries:   make([]int64, workers),
		PerWorkerDistComps: make([]int64, workers),
		PerWorkerHops:      make([]int64, workers),
	}
	b := &batch{
		res:        res,
		collectors: make([]*topk.Collector, nq),
		tasks:      make([]task, 0, nq*d.cfg.NProbe),
		first:      make([]int32, nq+1),
		sent:       make([]int64, c.Size()),
	}
	for i := range b.collectors {
		b.collectors[i] = topk.New(k)
	}

	// Absorb anything left queued from previous batches (this also
	// un-lags workers whose old Done has since arrived), then open the
	// batch: from here on, Seq >= batchStart identifies our traffic.
	m.drainQueued(nil)
	b.batchStart = d.nextSeq()
	roundSeq := b.batchStart

	// Round 1 header: every alive, non-lagging worker participates.
	waitDone := make([]int, 0, workers)
	for w := 1; w <= workers; w++ {
		if !c.IsDown(w) && !d.lagging[w] {
			waitDone = append(waitDone, w)
		}
	}
	oneSided := d.cfg.OneSided && d.cfg.QueryTimeout <= 0 && len(waitDone) == workers
	d.cfg.Trace.Emitf(0, "batch", "start: %d queries, k=%d, seq=%d", nq, k, roundSeq)
	inRound := make([]bool, c.Size())
	var commT time.Duration
	metrics.Phase(&commT, func() {
		enc := encodeHeader(batchHeader{Seq: roundSeq, NQueries: uint32(nq), K: uint16(k), OneSided: oneSided})
		waitDone = slices.DeleteFunc(waitDone, func(w int) bool {
			inRound[w] = c.Send(w, tagHeader, enc) == nil
			return !inRound[w]
		})
	})
	var win *cluster.Window
	if oneSided {
		var err error
		if win, err = cluster.NewWindow(c, 0, nq, mergeResultSlot(k)); err != nil {
			return nil, err
		}
	}

	// Route and dispatch. next[i] rotates the workgroup of partition i
	// (Algorithm 5's per-core round robin); a candidate that is dead,
	// lagging, or fails at send time falls through to the next replica.
	next := make([]int32, p)
	r := int32(d.cfg.Replication)
	var routeT, sendT time.Duration
	for qi := 0; qi < nq; qi++ {
		q := queries.At(qi)
		var routes []vptree.Route
		metrics.Phase(&routeT, func() { routes = route(qi, q) })
		b.first[qi] = int32(len(b.tasks))
		metrics.Phase(&sendT, func() {
			for _, rt := range routes {
				b.tasks = append(b.tasks, task{qi: uint32(qi), part: int32(rt.Partition), rot: next[rt.Partition]})
				t := &b.tasks[len(b.tasks)-1]
				next[rt.Partition] = (next[rt.Partition] + 1) % r
				b.pending++
				msg := encodeQuery(queryMsg{QueryID: t.qi, Partition: t.part, K: uint16(k), Vec: q})
				for {
					w := d.assign(t)
					if w < 0 {
						break // no live replica: stays pending -> degraded
					}
					if !inRound[w] || c.Send(w, tagQuery, msg) != nil {
						continue // died at header or send time; try the next replica
					}
					t.worker = int32(w)
					b.sent[w]++
					res.Dispatched++
					if d.cfg.Trace != nil {
						d.cfg.Trace.Emitf(0, "dispatch", "q%d -> partition %d on rank %d", qi, rt.Partition, w)
					}
					break
				}
			}
		})
	}
	b.first[nq] = int32(len(b.tasks))
	metrics.Phase(&sendT, func() {
		waitDone = slices.DeleteFunc(waitDone, func(w int) bool {
			return c.Send(w, tagEOQ, nil) != nil
		})
	})

	// Collect round 1.
	var recvT time.Duration
	var roundErr error
	metrics.Phase(&recvT, func() {
		roundErr = m.collectRound(b, waitDone, roundSeq, d.roundDeadline())
	})
	if roundErr != nil {
		return nil, roundErr
	}
	if oneSided {
		metrics.Phase(&recvT, func() { m.readWindow(b, win) })
		if err := win.Free(); err != nil {
			return nil, err
		}
	}

	// Retry rounds: regroup the leftover tasks onto untried replicas.
	var batchFailovers int64
	for attempt := 1; b.pending > 0 && attempt <= d.cfg.MaxRetries; attempt++ {
		time.Sleep(d.cfg.RetryBackoff << (attempt - 1))
		// Late traffic may have resolved tasks (or un-lagged workers)
		// while we slept.
		m.drainQueued(b)
		if b.pending == 0 {
			break
		}
		byWorker := make(map[int][]int)
		for i := range b.tasks {
			if t := &b.tasks[i]; !t.done {
				if w := d.assign(t); w >= 0 {
					byWorker[w] = append(byWorker[w], i)
				}
			}
		}
		if len(byWorker) == 0 {
			break // every leftover task has exhausted its workgroup
		}
		res.Retries++
		roundSeq = d.nextSeq()
		d.cfg.Trace.Emitf(0, "fault", "retry round %d: %d tasks on %d workers", roundSeq, b.pending, len(byWorker))
		waitDone = waitDone[:0]
		metrics.Phase(&sendT, func() {
			enc := encodeHeader(batchHeader{Seq: roundSeq, NQueries: uint32(nq), K: uint16(k)})
			for w, tasks := range byWorker {
				if err := c.Send(w, tagHeader, enc); err != nil {
					continue // died just now; tasks stay pending
				}
				for _, i := range tasks {
					t := &b.tasks[i]
					msg := encodeQuery(queryMsg{QueryID: t.qi, Partition: t.part, K: uint16(k), Vec: queries.At(int(t.qi))})
					if err := c.Send(w, tagQuery, msg); err != nil {
						break
					}
					batchFailovers++
					res.Dispatched++
				}
				if err := c.Send(w, tagEOQ, nil); err != nil {
					continue
				}
				waitDone = append(waitDone, w)
			}
		})
		if len(waitDone) == 0 {
			continue
		}
		metrics.Phase(&recvT, func() {
			roundErr = m.collectRound(b, waitDone, roundSeq, d.roundDeadline())
		})
		if roundErr != nil {
			return nil, roundErr
		}
	}

	// Finalize: whatever is still pending is lost for this batch.
	if b.pending > 0 {
		res.Degraded = true
		failed := make([]bool, p)
		for _, t := range b.tasks {
			failed[t.part] = failed[t.part] || !t.done
		}
		for part, f := range failed {
			if f {
				res.FailedPartitions = append(res.FailedPartitions, part)
			}
		}
		d.cfg.Trace.Emitf(0, "fault", "batch degraded: %d tasks lost, partitions %v", b.pending, res.FailedPartitions)
	}
	res.Failovers = batchFailovers
	for i, col := range b.collectors {
		res.Results[i] = col.Results()
	}
	res.Elapsed = time.Since(t0)
	d.cfg.Trace.Emitf(0, "batch", "done in %v (%d tasks, %d failovers, degraded=%v)",
		res.Elapsed, res.Dispatched, res.Failovers, res.Degraded)
	res.Breakdown = metrics.Breakdown{
		Route:   routeT,
		Comm:    commT + sendT + recvT,
		Compute: 0,
		Total:   res.Elapsed,
	}
	return res, nil
}

// readWindow closes round 1 of a one-sided batch: it waits for the
// accumulates the Dones announced, pushes every slot into its query's
// collector, and settles the tasks. A task whose worker's Done covered
// everything it was sent is done; the tasks of a worker that died or
// sent a short Done are exhausted, since the window may already hold
// some of their rows.
func (m *Master) readWindow(b *batch, win *cluster.Window) {
	win.WaitApplied(b.acc)
	for qi, col := range b.collectors {
		slot := win.Read(qi)
		if slot == nil {
			continue
		}
		if rm, err := decodeResult(slot); err == nil {
			for _, x := range rm.Results {
				col.PushResult(x)
			}
		}
	}
	r := int32(m.d.cfg.Replication)
	for i := range b.tasks {
		t := &b.tasks[i]
		switch {
		case t.worker == 0:
			// never dispatched: a two-sided retry may still find a replica
		case b.sent[t.worker] == 0:
			t.done = true
			b.pending--
		default:
			t.walked = r
		}
	}
}
