package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/topk"
	"repro/internal/vec"
)

// fakeBackend answers query q with k rows whose IDs encode q[0], records
// every dispatched batch size, and can block or delay to stage overload
// and coalescing scenarios.
type fakeBackend struct {
	dim     int
	delay   time.Duration
	block   chan struct{} // when non-nil, SearchBatch waits for close
	entered chan struct{} // when non-nil, receives one token per SearchBatch call

	degraded    bool  // when set, every batch reports a partial answer
	failedParts []int // partitions reported as failed alongside degraded

	mu      sync.Mutex
	batches []int
	queries int
}

func (f *fakeBackend) Dim() int  { return f.dim }
func (f *fakeBackend) MaxK() int { return 0 }

func (f *fakeBackend) SearchBatch(ctx context.Context, qs *vec.Dataset, k int) (BatchOutput, error) {
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.block != nil {
		<-f.block
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	f.batches = append(f.batches, qs.Len())
	f.queries += qs.Len()
	f.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return BatchOutput{}, err
	}
	out := make([][]topk.Result, qs.Len())
	for i := range out {
		base := int64(qs.At(i)[0])
		row := make([]topk.Result, k)
		for j := range row {
			row[j] = topk.Result{ID: base*1000 + int64(j), Dist: float32(j)}
		}
		out[i] = row
	}
	return BatchOutput{Results: out, Degraded: f.degraded, FailedPartitions: f.failedParts}, nil
}

func (f *fakeBackend) snapshot() (batches []int, queries int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batches...), f.queries
}

func query(dim int, tag float32) []float32 {
	q := make([]float32, dim)
	q[0] = tag
	return q
}

// TestBatcherCoalesces: concurrent submissions land in shared rounds —
// the observed max batch size exceeds 1 and every caller still gets its
// own correct, k-trimmed row.
func TestBatcherCoalesces(t *testing.T) {
	fb := &fakeBackend{dim: 4}
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 32, MaxWait: 50 * time.Millisecond, QueueDepth: 64}, nil)
	defer b.Drain(context.Background())

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	rows := make([][]topk.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i], _, errs[i] = b.DoFiltered(context.Background(), query(4, float32(i)), 3, nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(rows[i]) != 3 {
			t.Fatalf("request %d: got %d results, want 3", i, len(rows[i]))
		}
		if rows[i][0].ID != int64(i)*1000 {
			t.Fatalf("request %d: got row for tag %d", i, rows[i][0].ID/1000)
		}
	}
	batches, queries := fb.snapshot()
	if queries != n {
		t.Fatalf("backend saw %d queries, want %d", queries, n)
	}
	max := 0
	for _, sz := range batches {
		if sz > max {
			max = sz
		}
	}
	if max < 2 {
		t.Fatalf("no coalescing observed: batch sizes %v", batches)
	}
	t.Logf("coalesced %d requests into %d batches (max size %d)", n, len(batches), max)
}

// TestBatcherDropsExpired: a request whose deadline passed while queued
// is answered with its context error and never reaches the backend.
func TestBatcherDropsExpired(t *testing.T) {
	fb := &fakeBackend{dim: 4}
	stats := NewStats()
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 8, MaxWait: time.Millisecond, QueueDepth: 8}, stats)
	defer b.Drain(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch, err := b.SubmitFiltered(ctx, query(4, 1), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if !errors.Is(a.err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", a.err)
	}
	if _, queries := fb.snapshot(); queries != 0 {
		t.Fatalf("expired query reached the backend (%d queries)", queries)
	}
	if got := stats.DeadlineDrops.Load(); got != 1 {
		t.Fatalf("DeadlineDrops = %d, want 1", got)
	}
}

// TestBatcherOverload: once the dispatcher is busy and the bounded queue
// is full, SubmitFiltered sheds immediately with ErrOverloaded.
func TestBatcherOverload(t *testing.T) {
	fb := &fakeBackend{dim: 4, block: make(chan struct{}), entered: make(chan struct{}, 4)}
	stats := NewStats()
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 1, MaxWait: time.Millisecond, QueueDepth: 2}, stats)
	defer b.Drain(context.Background())

	// First submission is collected by the dispatcher and blocks inside
	// the backend; wait for that handshake so queue occupancy is exact.
	first, err := b.SubmitFiltered(context.Background(), query(4, 0), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-fb.entered

	// Fill the admission queue.
	waiting := make([]<-chan answer, 0, 2)
	for i := 1; i <= 2; i++ {
		ch, err := b.SubmitFiltered(context.Background(), query(4, float32(i)), 1, nil)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waiting = append(waiting, ch)
	}
	// The queue is full: the next submission must shed.
	if _, err := b.SubmitFiltered(context.Background(), query(4, 9), 1, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if got := stats.Shed.Load(); got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}

	// Release the backend (a closed channel unblocks every later round):
	// everything admitted still completes.
	close(fb.block)
	if a := <-first; a.err != nil {
		t.Fatal(a.err)
	}
	for i, ch := range waiting {
		if a := <-ch; a.err != nil {
			t.Fatalf("queued request %d: %v", i, a.err)
		}
	}
}

// TestBatcherDrain: Drain finishes queued work, then refuses new
// submissions with ErrDraining.
func TestBatcherDrain(t *testing.T) {
	fb := &fakeBackend{dim: 4, delay: 2 * time.Millisecond}
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 16}, nil)

	chans := make([]<-chan answer, 0, 8)
	for i := 0; i < 8; i++ {
		ch, err := b.SubmitFiltered(context.Background(), query(4, float32(i)), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		a := <-ch
		if a.err != nil {
			t.Fatalf("request %d lost in drain: %v", i, a.err)
		}
	}
	if _, err := b.SubmitFiltered(context.Background(), query(4, 0), 2, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining after drain, got %v", err)
	}
	if _, queries := fb.snapshot(); queries != 8 {
		t.Fatalf("backend saw %d queries, want all 8", queries)
	}
}
