package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"slices"
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

// queries returns n queries tagged from, from+1, ...
func queries(dim, from, n int) [][]float32 {
	qs := make([][]float32, n)
	for i := range qs {
		qs[i] = query(dim, float32(from+i))
	}
	return qs
}

// TestBatcherCoalesces: concurrent requests land in shared rounds — the
// observed max round holds more than one request's queries — and every
// caller still gets its own correct, k-trimmed rows, in order.
func TestBatcherCoalesces(t *testing.T) {
	fb := &fakeBackend{dim: 4}
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 32, MaxWait: 50 * time.Millisecond, QueueDepth: 64}, nil)
	defer b.Drain(context.Background())

	const n, per = 16, 2
	var wg sync.WaitGroup
	errs := make([]error, n)
	rows := make([][][]topk.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i], _, errs[i] = b.Do(context.Background(), queries(4, per*i, per), 3, nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(rows[i]) != per {
			t.Fatalf("request %d: got %d rows, want %d", i, len(rows[i]), per)
		}
		for j, row := range rows[i] {
			if len(row) != 3 {
				t.Fatalf("request %d row %d: got %d results, want 3", i, j, len(row))
			}
			if tag := int64(per*i + j); row[0].ID != tag*1000 {
				t.Fatalf("request %d row %d: got row for tag %d, want %d", i, j, row[0].ID/1000, tag)
			}
		}
	}
	batches, queries := fb.snapshot()
	if queries != n*per {
		t.Fatalf("backend saw %d queries, want %d", queries, n*per)
	}
	max := 0
	for _, sz := range batches {
		if sz > max {
			max = sz
		}
	}
	if max <= per {
		t.Fatalf("no coalescing observed: batch sizes %v", batches)
	}
	t.Logf("coalesced %d requests into %d batches (max size %d)", n, len(batches), max)
}

// TestBatcherDropsExpired: a request whose deadline passed while queued
// is answered with its context error and none of its queries reaches
// the backend.
func TestBatcherDropsExpired(t *testing.T) {
	fb := &fakeBackend{dim: 4}
	stats := NewStats()
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 8, MaxWait: time.Millisecond, QueueDepth: 8}, stats)
	defer b.Drain(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch, err := b.submit(ctx, queries(4, 1, 2), 3, nil)
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
	if got := stats.DeadlineDrops.Load(); got != 2 {
		t.Fatalf("DeadlineDrops = %d, want 2", got)
	}
}

// TestBatcherOverload: once the dispatcher is busy and the bounded queue
// is full, submit sheds immediately with ErrOverloaded.
func TestBatcherOverload(t *testing.T) {
	fb := &fakeBackend{dim: 4, block: make(chan struct{}), entered: make(chan struct{}, 4)}
	stats := NewStats()
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 1, MaxWait: time.Millisecond, QueueDepth: 2}, stats)
	defer b.Drain(context.Background())

	// First request is collected by the dispatcher and blocks inside
	// the backend; wait for that handshake so queue occupancy is exact.
	first, err := b.submit(context.Background(), queries(4, 0, 1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-fb.entered

	// Fill the admission queue.
	waiting := make([]<-chan answer, 0, 2)
	for i := 1; i <= 2; i++ {
		ch, err := b.submit(context.Background(), queries(4, i, 1), 1, nil)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waiting = append(waiting, ch)
	}
	// The queue is full: the next request must shed.
	if _, err := b.submit(context.Background(), queries(4, 9, 1), 1, nil); !errors.Is(err, ErrOverloaded) {
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

// TestBatcherCollectedLeavesQueue: QueueDepth counts only queries still
// in the queue. Requests the dispatcher has taken off it — into the round
// it is collecting, or carried into the next round — no longer count, so
// a full QueueDepth of new queries is admitted behind them.
func TestBatcherCollectedLeavesQueue(t *testing.T) {
	fb := &fakeBackend{dim: 4}
	stats := NewStats()
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 4, MaxWait: time.Hour, QueueDepth: 2}, stats)
	defer b.Drain(context.Background())

	var chans []<-chan answer
	// submit admits a request and waits until the dispatcher has taken it
	// off the queue.
	submit := func(from, n int) {
		t.Helper()
		ch, err := b.submit(context.Background(), queries(4, from, n), 1, nil)
		if err != nil {
			t.Fatalf("request of %d queries at %d: %v", n, from, err)
		}
		chans = append(chans, ch)
		waitFor(t, func() bool { return stats.Snapshot().QueueDepth == 0 })
	}
	submit(0, 1)  // opens a round, which waits for MaxWait
	submit(10, 2) // joins it: 3 queries collected, none queued
	submit(20, 2) // would overflow the round: it goes out, and this opens the next
	submit(30, 2) // fills the next round
	for i, ch := range chans {
		if a := <-ch; a.err != nil {
			t.Fatalf("request %d: %v", i, a.err)
		}
	}
	if got := stats.Shed.Load(); got != 0 {
		t.Fatalf("Shed = %d, want 0", got)
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if !slices.Equal(fb.batches, []int{3, 4}) {
		t.Fatalf("rounds %v, want [3 4]", fb.batches)
	}
}

// TestBatcherDrain: Drain finishes queued work, then refuses new
// requests with ErrDraining.
func TestBatcherDrain(t *testing.T) {
	fb := &fakeBackend{dim: 4, delay: 2 * time.Millisecond}
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 16}, nil)

	chans := make([]<-chan answer, 0, 8)
	for i := 0; i < 8; i++ {
		ch, err := b.submit(context.Background(), queries(4, i, 1), 2, nil)
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
	if _, err := b.submit(context.Background(), queries(4, 0, 1), 2, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining after drain, got %v", err)
	}
	if _, queries := fb.snapshot(); queries != 8 {
		t.Fatalf("backend saw %d queries, want all 8", queries)
	}
}

// TestBatcherAdmitsLargeRequestWhenIdle: QueueDepth bounds what waits
// behind other work, not the size of a request: an empty queue admits a
// request larger than the whole queue, and a request larger than
// MaxBatch is one backend round, sent without waiting out MaxWait.
func TestBatcherAdmitsLargeRequestWhenIdle(t *testing.T) {
	fb := &fakeBackend{dim: 4}
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 4, MaxWait: time.Hour, QueueDepth: 2}, nil)
	defer b.Drain(context.Background())

	rows, _, err := b.Do(context.Background(), queries(4, 0, 10), 1, nil)
	if err != nil {
		t.Fatalf("a 10-query request on an idle queue of depth 2: %v", err)
	}
	for i, row := range rows {
		if len(row) != 1 || row[0].ID != int64(i)*1000 {
			t.Fatalf("row %d: %v", i, row)
		}
	}
	if batches, _ := fb.snapshot(); len(batches) != 1 || batches[0] != 10 {
		t.Fatalf("rounds %v, want one round of 10", batches)
	}
}

// TestBatcherNeverSplitsRequest: a round takes requests while their
// queries fit in MaxBatch; a request that does not fit opens the next
// round whole, so no round holds more than max(MaxBatch, its largest
// request).
func TestBatcherNeverSplitsRequest(t *testing.T) {
	fb := &fakeBackend{dim: 4, block: make(chan struct{}), entered: make(chan struct{}, 4)}
	b := NewBatcher(fb, BatcherConfig{MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 16}, nil)
	defer b.Drain(context.Background())

	wedge, err := b.submit(context.Background(), queries(4, 0, 1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-fb.entered
	var chans []<-chan answer
	for _, n := range []int{2, 3, 1, 5} {
		ch, err := b.submit(context.Background(), queries(4, 10, n), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	close(fb.block)
	for _, ch := range append(chans, wedge) {
		if a := <-ch; a.err != nil {
			t.Fatal(a.err)
		}
	}
	// 2 + 3 > 4 closes the round at 2; 3 + 1 fills the next; 5 is alone.
	if batches, _ := fb.snapshot(); !reflect.DeepEqual(batches, []int{1, 2, 4, 5}) {
		t.Fatalf("rounds %v, want [1 2 4 5]", batches)
	}
}

// TestServerShedsWholeRequest: a POST that does not fit in the free
// queue is refused whole with 429, and none of its queries reaches the
// backend — not even the ones the free room would have held.
func TestServerShedsWholeRequest(t *testing.T) {
	fb := &fakeBackend{dim: 4, block: make(chan struct{}), entered: make(chan struct{}, 8)}
	s := NewServer(fb, ServerConfig{Batcher: BatcherConfig{MaxBatch: 1, MaxWait: time.Millisecond, QueueDepth: 2}})
	released := false
	release := func() {
		if !released {
			released = true
			close(fb.block)
		}
	}
	defer release()

	// Wedge the dispatcher on one query, and queue one more behind it:
	// one query of room is left.
	codes := make(chan int, 2)
	search := func(body string) {
		go func() {
			code, _ := post(s, "/v1/search", body)
			codes <- code
		}()
	}
	search(`{"query":[1,0,0,0],"k":1}`)
	<-fb.entered
	search(`{"query":[2,0,0,0],"k":1}`)
	waitFor(t, func() bool { return s.Stats().Snapshot().QueueDepth == 1 })

	shed := make(chan int, 1)
	go func() {
		code, _ := post(s, "/v1/search", `{"queries":[[3,0,0,0],[4,0,0,0],[5,0,0,0]],"k":1}`)
		shed <- code
	}()
	select {
	case code := <-shed:
		if code != http.StatusTooManyRequests {
			t.Fatalf("a 3-query POST with room for 1: %d, want 429", code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a 3-query POST with room for 1 is still waiting on the queries it got admitted")
	}
	if got := s.Stats().Shed.Load(); got != 3 {
		t.Fatalf("Shed = %d, want all 3 queries of the POST", got)
	}

	release()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("admitted search: %d", code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, queries := fb.snapshot(); queries != 2 {
		t.Fatalf("backend saw %d queries, want the 2 admitted before the shed POST", queries)
	}
}

// TestServerCrossedFlights: requests that repeat each other's queries,
// in other orders and within themselves, each lead some flights and join
// others. Each settles what it leads before it waits on what it joined,
// so all of them finish, every row its own query's.
func TestServerCrossedFlights(t *testing.T) {
	fb := &fakeBackend{dim: 4, delay: time.Millisecond}
	s := NewServer(fb, ServerConfig{Batcher: BatcherConfig{MaxBatch: 8, MaxWait: time.Millisecond}})
	defer s.Drain(context.Background())
	orders := [][]int{{1, 2, 3}, {3, 2, 1}, {2, 2, 1}}
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		tags := orders[i%len(orders)]
		body := fmt.Sprintf(`{"queries":[[%d,0,0,0],[%d,0,0,0],[%d,0,0,0]],"k":1}`, tags[0], tags[1], tags[2])
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, got := post(s, "/v1/search", body)
			var sr searchResponse
			if err := json.Unmarshal([]byte(got), &sr); code != http.StatusOK || err != nil || len(sr.Results) != len(tags) {
				t.Errorf("%s: %d %s", body, code, got)
				return
			}
			for j, tag := range tags {
				if ids := sr.Results[j].IDs; len(ids) != 1 || ids[0] != int64(tag)*1000 {
					t.Errorf("%s: row %d is %v, want the row of tag %d", body, j, ids, tag)
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("requests that joined each other's flights did not finish")
	}
}
