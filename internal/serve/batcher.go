package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Submission errors, distinguished so the HTTP layer can map them to the
// right status (429 vs 503).
var (
	// ErrOverloaded means the admission queue is full; the caller should
	// retry after backing off (HTTP 429 + Retry-After).
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrDraining means the gateway is shutting down and admits no new
	// work (HTTP 503).
	ErrDraining = errors.New("serve: draining")
	// ErrFilterUnsupported means a filtered search was submitted against
	// a backend without a filtered batch path (HTTP 501).
	ErrFilterUnsupported = errors.New("serve: backend does not support filtered search")
)

// BatcherConfig tunes the micro-batcher. Both bounds count queries,
// not requests, and neither ever splits a request.
type BatcherConfig struct {
	// MaxBatch is the queries that close a backend round (default 64): a
	// round takes requests while their queries fit, and a request that
	// holds MaxBatch or more goes out as a round of its own.
	MaxBatch int
	// MaxWait is how long the first request of a round waits for company
	// before dispatching alone (default 2ms). Larger windows trade tail
	// latency for batch size — the knob behind the paper's
	// batch-throughput curve.
	MaxWait time.Duration
	// QueueDepth bounds the queries admitted but not yet taken off the
	// queue by the dispatcher; a request that would pass it is shed whole
	// with ErrOverloaded, except that an empty queue admits any request
	// (default 4×MaxBatch).
	QueueDepth int
}

func (c *BatcherConfig) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
}

// BatchMeta is the per-round health metadata every member of a
// dispatched round shares: whether the round was degraded and which
// partitions failed. The HTTP layer surfaces it to clients; the cache
// refuses to store degraded rows.
type BatchMeta struct {
	Degraded         bool
	FailedPartitions []int
}

// answer is what an admitted request eventually receives: one row per
// query, in order.
type answer struct {
	rows [][]topk.Result
	meta BatchMeta
	err  error
}

// request is one admitted search: its queries under one context, one k
// and one filter (nil for none); only requests with the same canonical
// filter share a backend call.
type request struct {
	ctx  context.Context
	qs   [][]float32
	k    int
	f    *filter.Expr
	done chan answer // buffered 1: dispatcher never blocks on delivery
}

// Batcher coalesces concurrent search requests into bounded backend
// rounds. One dispatcher goroutine owns the backend, so backends need
// not be concurrency-safe.
type Batcher struct {
	backend Backend
	cfg     BatcherConfig
	stats   *Stats

	mu     sync.Mutex // serializes admission against the drain-time close
	closed bool
	// queued counts the queries of the requests in queue; the dispatcher
	// subtracts a request's queries once it has taken it off. The queue
	// holds at most QueueDepth requests, since each holds a query and
	// admission keeps queued within QueueDepth — or it holds the one
	// request an empty queue admitted past that — so a send never blocks.
	queued atomic.Int64
	queue  chan *request

	stopped chan struct{} // closed when the dispatcher exits
}

// NewBatcher starts the dispatcher goroutine. Close it with Drain.
func NewBatcher(backend Backend, cfg BatcherConfig, stats *Stats) *Batcher {
	cfg.fill()
	if stats == nil {
		stats = NewStats()
	}
	b := &Batcher{
		backend: backend,
		cfg:     cfg,
		queue:   make(chan *request, cfg.QueueDepth),
		stats:   stats,
		stopped: make(chan struct{}),
	}
	go b.run()
	return b
}

// submit admits qs as one request, with the tag filter to push into the
// search: nil is an unfiltered request, and a non-nil one requires the
// backend to implement FilteredBackend. It never blocks: a request that
// does not fit the queue is shed whole with ErrOverloaded (admission
// control), and a draining batcher refuses with ErrDraining. On success
// the returned channel delivers exactly one answer.
func (b *Batcher) submit(ctx context.Context, qs [][]float32, k int, f *filter.Expr) (<-chan answer, error) {
	if len(qs) == 0 {
		return nil, errors.New("serve: a request without queries")
	}
	for _, q := range qs {
		if len(q) != b.backend.Dim() {
			return nil, fmt.Errorf("serve: query dim %d, index dim %d", len(q), b.backend.Dim())
		}
	}
	r := &request{ctx: ctx, qs: qs, k: k, done: make(chan answer, 1)}
	if !f.Empty() {
		if _, ok := b.backend.(FilteredBackend); !ok {
			return nil, ErrFilterUnsupported
		}
		r.f = f
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrDraining
	}
	n := int64(len(qs))
	if q := b.queued.Load(); q > 0 && q+n > int64(b.cfg.QueueDepth) {
		b.stats.Shed.Add(n)
		return nil, ErrOverloaded
	}
	b.queued.Add(n)
	b.stats.queueDepth.Add(n)
	b.queue <- r
	return r.done, nil
}

// Do submits qs as one request under f (nil = unfiltered) and waits for
// its rows, one per query, or ctx expiry, whichever comes first.
func (b *Batcher) Do(ctx context.Context, qs [][]float32, k int, f *filter.Expr) ([][]topk.Result, BatchMeta, error) {
	ch, err := b.submit(ctx, qs, k, f)
	if err != nil {
		return nil, BatchMeta{}, err
	}
	select {
	case a := <-ch:
		return a.rows, a.meta, a.err
	case <-ctx.Done():
		// The dispatcher will notice the dead context and drop the request
		// before dispatch (or waste its rows if it already went out).
		return nil, BatchMeta{}, ctx.Err()
	}
}

// DoFiltered is Do for one query.
func (b *Batcher) DoFiltered(ctx context.Context, q []float32, k int, f *filter.Expr) ([]topk.Result, BatchMeta, error) {
	rows, meta, err := b.Do(ctx, [][]float32{q}, k, f)
	if err != nil {
		return nil, meta, err
	}
	return rows[0], meta, nil
}

// Draining reports whether Drain has begun.
func (b *Batcher) Draining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// Drain stops admission, lets the dispatcher finish everything already
// queued, and waits for it to exit (bounded by ctx). Safe to call more
// than once; only the first call closes the queue.
func (b *Batcher) Drain(ctx context.Context) error {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
	b.mu.Unlock()
	select {
	case <-b.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the dispatcher: collect a round, dispatch it, repeat until the
// queue is closed and empty.
func (b *Batcher) run() {
	defer close(b.stopped)
	var next *request
	for {
		if next == nil {
			var ok bool
			if next, ok = <-b.queue; !ok {
				return
			}
			b.queued.Add(-int64(len(next.qs)))
			b.stats.queueDepth.Add(-int64(len(next.qs)))
		}
		var round []*request
		round, next = b.collect(next)
		b.dispatch(round)
	}
}

// collect accumulates a round behind first: requests join while their
// queries fit in MaxBatch, for at most MaxWait past the round's start. A
// first request that fills MaxBatch on its own goes out at once, and one
// that does not fit closes the round and is returned as next, the first
// of the following round — so no request is split, and no round holds
// more than max(MaxBatch, its largest request) queries.
func (b *Batcher) collect(first *request) (round []*request, next *request) {
	round, n := []*request{first}, len(first.qs)
	if n >= b.cfg.MaxBatch {
		return round, nil
	}
	timer := time.NewTimer(b.cfg.MaxWait)
	defer timer.Stop()
	for n < b.cfg.MaxBatch {
		select {
		case r, ok := <-b.queue:
			if !ok {
				return round, nil // draining: dispatch what we have
			}
			b.queued.Add(-int64(len(r.qs))) // r leaves the queue for this round or the next
			b.stats.queueDepth.Add(-int64(len(r.qs)))
			if n+len(r.qs) > b.cfg.MaxBatch {
				return round, r
			}
			round, n = append(round, r), n+len(r.qs)
		case <-timer.C:
			return round, nil
		}
	}
	return round, nil
}

// dispatch runs one coalesced round: expired requests are dropped before
// the backend sees them, then the survivors go out grouped by canonical
// filter — requests under the same (possibly empty) filter share one
// backend call, since the whole call runs under one predicate. The common
// all-unfiltered case stays a single call.
func (b *Batcher) dispatch(round []*request) {
	live := round[:0]
	for _, r := range round {
		if err := r.ctx.Err(); err != nil {
			b.stats.DeadlineDrops.Add(int64(len(r.qs)))
			r.done <- answer{err: err}
			continue
		}
		live = append(live, r)
	}
	slices.SortStableFunc(live, func(x, y *request) int { return strings.Compare(x.f.Canonical(), y.f.Canonical()) })
	for len(live) > 0 {
		n := 1
		for n < len(live) && live[n].f.Canonical() == live[0].f.Canonical() {
			n++
		}
		b.dispatchGroup(live[:n])
		live = live[n:]
	}
}

// dispatchGroup runs one backend call over requests sharing a filter:
// bounded by the latest member deadline, each member getting its own
// rows, trimmed to its k.
func (b *Batcher) dispatchGroup(group []*request) {
	n, maxK := 0, 0
	deadline, bounded := time.Time{}, true // bounded: every member has a deadline
	for _, r := range group {
		n, maxK = n+len(r.qs), max(maxK, r.k)
		d, ok := r.ctx.Deadline()
		bounded = bounded && ok
		if d.After(deadline) {
			deadline = d
		}
	}
	qs := vec.NewDataset(b.backend.Dim(), n)
	for _, r := range group {
		for _, q := range r.qs {
			qs.Append(q, int64(qs.Len()))
		}
	}
	if mk := b.backend.MaxK(); mk > 0 && maxK > mk {
		maxK = mk
	}

	// The call may serve requests with different deadlines; it runs
	// until the *latest* of them (a short-deadline member must not
	// starve the rest), and not at all past that.
	ctx := context.Background()
	if bounded {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	var out BatchOutput
	var err error
	if f := group[0].f; f != nil {
		// submit only admits filtered requests when the backend
		// implements FilteredBackend, so this assertion cannot fail.
		out, err = b.backend.(FilteredBackend).SearchBatchFiltered(ctx, qs, maxK, f)
	} else {
		out, err = b.backend.SearchBatch(ctx, qs, maxK)
	}
	b.stats.recordBatch(n)
	if err != nil {
		b.stats.BackendErrors.Add(1)
		for _, r := range group {
			r.done <- answer{err: err}
		}
		return
	}
	meta := BatchMeta{Degraded: out.Degraded, FailedPartitions: out.FailedPartitions}
	if meta.Degraded {
		b.stats.DegradedBatches.Add(1)
	}
	rows := out.Results
	for _, r := range group {
		mine := rows[:len(r.qs):len(r.qs)]
		rows = rows[len(r.qs):]
		for i, row := range mine {
			if len(row) > r.k {
				mine[i] = row[:r.k]
			}
		}
		r.done <- answer{rows: mine, meta: meta}
	}
}
