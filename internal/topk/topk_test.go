package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCollectorKeepsKSmallest(t *testing.T) {
	c := New(3)
	dists := []float32{5, 1, 9, 3, 7, 2}
	for i, d := range dists {
		c.Push(int64(i), d)
	}
	got := c.Results()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	wantDists := []float32{1, 2, 3}
	for i, r := range got {
		if r.Dist != wantDists[i] {
			t.Errorf("result[%d] = %+v, want dist %v", i, r, wantDists[i])
		}
	}
}

func TestCollectorBound(t *testing.T) {
	c := New(2)
	if c.Bound() != maxFloat32 {
		t.Error("empty collector should have +inf bound")
	}
	c.Push(1, 4)
	if c.Bound() != maxFloat32 {
		t.Error("non-full collector should have +inf bound")
	}
	c.Push(2, 2)
	if c.Bound() != 4 {
		t.Errorf("Bound = %v, want 4", c.Bound())
	}
	if c.Push(3, 5) {
		t.Error("push worse than bound should be rejected")
	}
	if !c.Push(3, 1) {
		t.Error("push better than bound should be kept")
	}
	if c.Bound() != 2 {
		t.Errorf("Bound = %v, want 2", c.Bound())
	}
}

func TestCollectorResetAndAccessors(t *testing.T) {
	c := New(4)
	if c.K() != 4 {
		t.Errorf("K = %d", c.K())
	}
	c.PushResult(Result{1, 1})
	if c.Len() != 1 || c.Full() {
		t.Error("Len/Full wrong after one push")
	}
	c.Reset()
	if c.Len() != 0 {
		t.Error("Reset did not empty")
	}
}

func TestNewPanicsOnNonPositiveK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0)
}

// Property: the collector returns exactly the k smallest distances of any
// push sequence, in sorted order.
func TestCollectorQuick(t *testing.T) {
	err := quick.Check(func(ds []float32, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		c := New(k)
		for i, d := range ds {
			c.Push(int64(i), d)
		}
		got := c.Results()
		want := append([]float32(nil), ds...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Dist != want[i] {
				return false
			}
			if i > 0 && got[i].Dist < got[i-1].Dist {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestMergeDeduplicates(t *testing.T) {
	a := []Result{{1, 5}, {2, 1}}
	b := []Result{{1, 3}, {3, 2}}
	got := Merge(3, a, b)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].ID != 2 || got[1].ID != 3 || got[2].ID != 1 || got[2].Dist != 3 {
		t.Errorf("merge = %+v", got)
	}
}

func TestMergeEmpty(t *testing.T) {
	if got := Merge(5); len(got) != 0 {
		t.Errorf("Merge() = %+v", got)
	}
	if got := Merge(2, nil, []Result{}); len(got) != 0 {
		t.Errorf("Merge(nil) = %+v", got)
	}
}

// Property: merging partial lists equals collecting everything at once.
func TestMergeEqualsGlobalQuick(t *testing.T) {
	err := quick.Check(func(ds []float32, split uint8) bool {
		if len(ds) == 0 {
			return true
		}
		s := int(split) % len(ds)
		var a, b []Result
		for i, d := range ds {
			r := Result{int64(i), d}
			if i < s {
				a = append(a, r)
			} else {
				b = append(b, r)
			}
		}
		merged := Merge(5, a, b)
		c := New(5)
		for i, d := range ds {
			c.Push(int64(i), d)
		}
		want := c.Results()
		if len(merged) != len(want) {
			return false
		}
		for i := range want {
			if merged[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestMinQueueOrdering(t *testing.T) {
	var q MinQueue
	for _, d := range []float32{5, 1, 4, 2, 3} {
		q.PushMin(int64(d), d)
	}
	if q.PeekMin().Dist != 1 {
		t.Errorf("PeekMin = %v", q.PeekMin())
	}
	prev := float32(-1)
	for q.Len() > 0 {
		r := q.PopMin()
		if r.Dist < prev {
			t.Errorf("out of order: %v after %v", r.Dist, prev)
		}
		prev = r.Dist
	}
}

// Property: MinQueue pops in nondecreasing order.
func TestMinQueueQuick(t *testing.T) {
	err := quick.Check(func(ds []float32) bool {
		var q MinQueue
		for i, d := range ds {
			q.PushMin(int64(i), d)
		}
		prev := float32(-maxFloat32)
		for q.Len() > 0 {
			r := q.PopMin()
			if r.Dist < prev {
				return false
			}
			prev = r.Dist
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestMinQueueReset(t *testing.T) {
	var q MinQueue
	q.PushMin(1, 1)
	q.Reset()
	if q.Len() != 0 {
		t.Error("Reset did not empty")
	}
}

func TestSortResultsTieBreak(t *testing.T) {
	rs := []Result{{5, 1}, {2, 1}, {9, 0}}
	SortResults(rs)
	if rs[0].ID != 9 || rs[1].ID != 2 || rs[2].ID != 5 {
		t.Errorf("tie-break wrong: %+v", rs)
	}
}

// TestSortResultsOrder: on distinct IDs with many tied distances the
// sort's output is the one (distance, ID) order a reflective sort.Slice
// under the same comparison produces, and it allocates nothing.
func TestSortResultsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 300; n += 7 {
		rs := make([]Result, n)
		for i, id := range rng.Perm(n) {
			rs[i] = Result{ID: int64(id), Dist: float32(rng.Intn(8))}
		}
		want := append([]Result(nil), rs...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Dist != want[j].Dist {
				return want[i].Dist < want[j].Dist
			}
			return want[i].ID < want[j].ID
		})
		SortResults(rs)
		for i := range rs {
			if rs[i] != want[i] {
				t.Fatalf("n=%d: position %d is %+v, want %+v", n, i, rs[i], want[i])
			}
		}
	}
	rs := []Result{{5, 1}, {2, 1}, {9, 0}}
	if a := testing.AllocsPerRun(10, func() { SortResults(rs) }); a != 0 {
		t.Errorf("SortResults: %v allocs, want 0", a)
	}
}

func BenchmarkCollectorPush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := make([]float32, 4096)
	for i := range ds {
		ds[i] = rng.Float32()
	}
	b.ResetTimer()
	c := New(10)
	for i := 0; i < b.N; i++ {
		c.Push(int64(i), ds[i%len(ds)])
	}
}
