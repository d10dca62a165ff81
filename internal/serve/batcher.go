package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
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

// BatcherConfig tunes the micro-batcher.
type BatcherConfig struct {
	// MaxBatch is the most queries coalesced into one backend round
	// (default 64).
	MaxBatch int
	// MaxWait is how long the first request of a round waits for company
	// before dispatching alone (default 2ms). Larger windows trade tail
	// latency for batch size — the knob behind the paper's
	// batch-throughput curve.
	MaxWait time.Duration
	// QueueDepth bounds the admission queue; submissions beyond it are
	// shed with ErrOverloaded (default 4×MaxBatch).
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

// answer is what a pending request eventually receives.
type answer struct {
	results []topk.Result
	meta    BatchMeta
	err     error
}

// pending is one admitted request waiting for its round. Filtered
// requests carry their compiled expression plus its canonical string;
// only entries with the same canonical filter share a backend round.
type pending struct {
	ctx   context.Context
	q     []float32
	k     int
	f     *filter.Expr
	canon string
	done  chan answer // buffered 1: dispatcher never blocks on delivery
}

// Batcher coalesces concurrent single-query submissions into bounded
// backend rounds. One dispatcher goroutine owns the backend, so backends
// need not be concurrency-safe.
type Batcher struct {
	backend Backend
	cfg     BatcherConfig
	stats   *Stats

	mu     sync.Mutex // serializes queue sends against the drain-time close
	closed bool
	queue  chan *pending

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
		queue:   make(chan *pending, cfg.QueueDepth),
		stats:   stats,
		stopped: make(chan struct{}),
	}
	go b.run()
	return b
}

// SubmitFiltered admits one query, with the tag filter to push into the
// search: nil is an unfiltered submission, and a non-nil one requires
// the backend to implement FilteredBackend. It never blocks: a full
// queue is shed immediately with ErrOverloaded (admission control), and
// a draining batcher refuses with ErrDraining. On success the returned
// channel delivers exactly one answer.
func (b *Batcher) SubmitFiltered(ctx context.Context, q []float32, k int, f *filter.Expr) (<-chan answer, error) {
	if len(q) != b.backend.Dim() {
		return nil, fmt.Errorf("serve: query dim %d, index dim %d", len(q), b.backend.Dim())
	}
	p := &pending{ctx: ctx, q: q, k: k, done: make(chan answer, 1)}
	if !f.Empty() {
		if _, ok := b.backend.(FilteredBackend); !ok {
			return nil, ErrFilterUnsupported
		}
		p.f, p.canon = f, f.Canonical()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrDraining
	}
	select {
	case b.queue <- p:
		b.stats.queueDepth.Add(1)
		return p.done, nil
	default:
		b.stats.Shed.Add(1)
		return nil, ErrOverloaded
	}
}

// Draining reports whether Drain has begun.
func (b *Batcher) Draining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// DoFiltered submits q under f (nil = unfiltered) and waits for the
// answer or ctx expiry, whichever comes first. This is the call sites'
// one-stop entry; the single-flight cache layers on top of it.
func (b *Batcher) DoFiltered(ctx context.Context, q []float32, k int, f *filter.Expr) ([]topk.Result, BatchMeta, error) {
	ch, err := b.SubmitFiltered(ctx, q, k, f)
	if err != nil {
		return nil, BatchMeta{}, err
	}
	select {
	case a := <-ch:
		return a.results, a.meta, a.err
	case <-ctx.Done():
		// The dispatcher will notice the dead context and drop the entry
		// before dispatch (or waste one slot if it already went out).
		return nil, BatchMeta{}, ctx.Err()
	}
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
	for {
		first, ok := <-b.queue
		if !ok {
			return
		}
		b.stats.queueDepth.Add(-1)
		b.dispatch(b.collect(first))
	}
}

// collect accumulates a round: up to MaxBatch entries, waiting at most
// MaxWait past the first arrival.
func (b *Batcher) collect(first *pending) []*pending {
	batch := []*pending{first}
	if b.cfg.MaxBatch == 1 {
		return batch
	}
	timer := time.NewTimer(b.cfg.MaxWait)
	defer timer.Stop()
	for len(batch) < b.cfg.MaxBatch {
		select {
		case p, ok := <-b.queue:
			if !ok {
				return batch // draining: dispatch what we have
			}
			b.stats.queueDepth.Add(-1)
			batch = append(batch, p)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// dispatch runs one coalesced round: expired entries are dropped before
// the backend sees them, then the survivors go out grouped by canonical
// filter — entries under the same (possibly empty) filter share one
// backend round, since the whole round runs under one predicate. The
// common all-unfiltered case stays a single round.
func (b *Batcher) dispatch(batch []*pending) {
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			b.stats.DeadlineDrops.Add(1)
			p.done <- answer{err: err}
			continue
		}
		live = append(live, p)
	}
	for len(live) > 0 {
		canon := live[0].canon
		group := live[:0:0]
		rest := live[:0]
		for _, p := range live {
			if p.canon == canon {
				group = append(group, p)
			} else {
				rest = append(rest, p)
			}
		}
		b.dispatchGroup(group)
		live = rest
	}
}

// dispatchGroup runs one backend round over entries sharing a filter:
// bounded by the latest member deadline, each member getting its own
// trimmed result row.
func (b *Batcher) dispatchGroup(live []*pending) {
	qs := vec.NewDataset(b.backend.Dim(), len(live))
	maxK := 0
	var deadline time.Time
	haveDeadline := true
	for i, p := range live {
		qs.Append(p.q, int64(i))
		if p.k > maxK {
			maxK = p.k
		}
		if d, ok := p.ctx.Deadline(); ok {
			if d.After(deadline) {
				deadline = d
			}
		} else {
			haveDeadline = false
		}
	}
	if mk := b.backend.MaxK(); mk > 0 && maxK > mk {
		maxK = mk
	}

	// The round may serve requests with different deadlines; it runs
	// until the *latest* of them (a short-deadline member must not
	// starve the rest), and not at all past that.
	ctx := context.Background()
	if haveDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	var out BatchOutput
	var err error
	if f := live[0].f; f != nil {
		// SubmitFiltered only admits filtered entries when the backend
		// implements FilteredBackend, so this assertion cannot fail.
		out, err = b.backend.(FilteredBackend).SearchBatchFiltered(ctx, qs, maxK, f)
	} else {
		out, err = b.backend.SearchBatch(ctx, qs, maxK)
	}
	b.stats.recordBatch(len(live))
	if err != nil {
		b.stats.BackendErrors.Add(1)
		for _, p := range live {
			p.done <- answer{err: err}
		}
		return
	}
	meta := BatchMeta{Degraded: out.Degraded, FailedPartitions: out.FailedPartitions}
	if meta.Degraded {
		b.stats.DegradedBatches.Add(1)
	}
	for i, p := range live {
		row := out.Results[i]
		if len(row) > p.k {
			row = row[:p.k]
		}
		p.done <- answer{results: row, meta: meta}
	}
}
