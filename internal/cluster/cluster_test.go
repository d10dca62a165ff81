package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("hello"))
		}
		p, st, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(p) != "hello" || st.Source != 0 || st.Tag != 5 || st.Bytes != 5 {
			return fmt.Errorf("got %q %+v", p, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWildcardRecv(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, c.Rank(), []byte{byte(c.Rank())})
		}
		seen := make(map[int]bool)
		for i := 0; i < 3; i++ {
			p, st, err := c.Recv(Any, Any)
			if err != nil {
				return err
			}
			if int(p[0]) != st.Source || st.Tag != st.Source {
				return fmt.Errorf("mismatched envelope: %v %+v", p, st)
			}
			seen[st.Source] = true
		}
		if len(seen) != 3 {
			return fmt.Errorf("saw %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("one"))
			c.Send(1, 2, []byte("two"))
			return nil
		}
		// receive tag 2 first even though tag 1 arrived first
		p2, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		p1, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(p1) != "one" || string(p2) != "two" {
			return fmt.Errorf("got %q %q", p1, p2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendErrors(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			return fmt.Errorf("want range error")
		}
		if err := c.Send(0, -3, nil); err == nil {
			return fmt.Errorf("want negative-tag error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecv(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if _, _, ok, _ := c.TryRecv(1, 9); ok {
				return fmt.Errorf("TryRecv matched nothing sent yet?")
			}
			c.Send(1, 0, nil) // release peer
			p, _, err := c.Recv(1, 9)
			if err != nil || string(p) != "x" {
				return fmt.Errorf("recv: %q %v", p, err)
			}
			return nil
		}
		c.Recv(0, 0)
		c.Send(0, 9, []byte("x"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		w := NewWorld(n)
		var mu sync.Mutex
		phase := make(map[int]int)
		err := w.Run(func(c *Comm) error {
			for it := 0; it < 3; it++ {
				mu.Lock()
				phase[c.Rank()] = it
				// nobody may be more than one phase away
				for r, p := range phase {
					if p < it-1 || p > it+1 {
						mu.Unlock()
						return fmt.Errorf("rank %d at %d while rank %d at %d", c.Rank(), it, r, p)
					}
				}
				mu.Unlock()
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBcastAllRootsAndSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 9} {
		for root := 0; root < n; root++ {
			w := NewWorld(n)
			err := w.Run(func(c *Comm) error {
				var data []byte
				if c.Rank() == root {
					data = []byte(fmt.Sprintf("from-%d", root))
				}
				got, err := c.Bcast(root, data)
				if err != nil {
					return err
				}
				want := fmt.Sprintf("from-%d", root)
				if string(got) != want {
					return fmt.Errorf("rank %d got %q want %q", c.Rank(), got, want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestGathervScatterv(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		parts, err := c.Gatherv(2, []byte{byte(c.Rank() * 10)})
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			for i, p := range parts {
				if len(p) != 1 || p[0] != byte(i*10) {
					return fmt.Errorf("gather[%d] = %v", i, p)
				}
			}
		} else if parts != nil {
			return fmt.Errorf("non-root got parts")
		}
		var chunks [][]byte
		if c.Rank() == 1 {
			chunks = [][]byte{{0}, {1}, {2}, {3}}
		}
		got, err := c.Scatterv(1, chunks)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != byte(c.Rank()) {
			return fmt.Errorf("scatter got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScattervWrongChunkCount(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if _, err := c.Scatterv(0, [][]byte{{1}}); err == nil {
				return fmt.Errorf("want chunk count error")
			}
			// unblock peer with the real thing
			_, err := c.Scatterv(0, [][]byte{{1}, {2}})
			return err
		}
		_, err := c.Scatterv(0, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoAllv(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6} {
		w := NewWorld(n)
		err := w.Run(func(c *Comm) error {
			out := make([][]byte, n)
			for i := range out {
				out[i] = []byte(fmt.Sprintf("%d->%d", c.Rank(), i))
			}
			in, err := c.AlltoAllv(out)
			if err != nil {
				return err
			}
			for i := range in {
				want := fmt.Sprintf("%d->%d", i, c.Rank())
				if string(in[i]) != want {
					return fmt.Errorf("in[%d] = %q want %q", i, in[i], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// Property: AlltoAllv conserves total bytes for random payload shapes.
func TestAlltoAllvConservationQuick(t *testing.T) {
	err := quick.Check(func(sizes [3][3]uint8) bool {
		w := NewWorld(3)
		var mu sync.Mutex
		sent, recvd := 0, 0
		err := w.Run(func(c *Comm) error {
			out := make([][]byte, 3)
			for i := range out {
				out[i] = bytes.Repeat([]byte{1}, int(sizes[c.Rank()][i]))
				mu.Lock()
				sent += len(out[i])
				mu.Unlock()
			}
			in, err := c.AlltoAllv(out)
			if err != nil {
				return err
			}
			for i := range in {
				mu.Lock()
				recvd += len(in[i])
				mu.Unlock()
				if len(in[i]) != int(sizes[i][c.Rank()]) {
					return fmt.Errorf("size mismatch")
				}
			}
			return nil
		})
		return err == nil && sent == recvd
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestAllreduce(t *testing.T) {
	w := NewWorld(5)
	err := w.Run(func(c *Comm) error {
		sum, err := c.AllreduceInt64(int64(c.Rank()+1), func(a, b int64) int64 { return a + b })
		if err != nil || sum != 15 {
			return fmt.Errorf("sum = %v err %v", sum, err)
		}
		mx, err := c.AllreduceInt64(int64(c.Rank()), func(a, b int64) int64 { return max(a, b) })
		if err != nil || mx != 4 {
			return fmt.Errorf("max = %v err %v", mx, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherv(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		parts, err := c.Allgatherv([]byte{byte(c.Rank()), byte(c.Rank() * 2)})
		if err != nil {
			return err
		}
		if len(parts) != 4 {
			return fmt.Errorf("got %d parts", len(parts))
		}
		for i, p := range parts {
			if p[0] != byte(i) || p[1] != byte(i*2) {
				return fmt.Errorf("parts[%d] = %v", i, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitRecursiveHalving(t *testing.T) {
	// The VP-tree construction pattern: repeatedly halve until singleton.
	w := NewWorld(8)
	err := w.Run(func(c *Comm) error {
		cur := c
		expect := 8
		for cur.Size() > 1 {
			half := cur.Size() / 2
			color := 0
			if cur.Rank() >= half {
				color = 1
			}
			next, err := cur.Split(color, cur.Rank())
			if err != nil {
				return err
			}
			wantSize := half
			if color == 1 {
				wantSize = cur.Size() - half
			}
			if next.Size() != wantSize {
				return fmt.Errorf("split size %d want %d", next.Size(), wantSize)
			}
			// sub-communicator must be isolated: a broadcast within it
			// only reaches members
			v, err := next.Bcast(0, []byte{byte(next.Size())})
			if err != nil {
				return err
			}
			if v[0] != byte(next.Size()) {
				return fmt.Errorf("sub-bcast wrong")
			}
			cur = next
			expect /= 2
		}
		if cur.Rank() != 0 || cur.Size() != 1 {
			return fmt.Errorf("final comm %d/%d", cur.Rank(), cur.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitPreservesWorldRank(t *testing.T) {
	w := NewWorld(6)
	err := w.Run(func(c *Comm) error {
		// odd/even split, keyed by rank
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("size %d", sub.Size())
		}
		if got := sub.WorldRank(sub.Rank()); got != c.Rank() {
			return fmt.Errorf("WorldRank %d want %d", got, c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowSharedAccumulate(t *testing.T) {
	w := NewWorld(4)
	const perRank = 100
	sum := func(cur, upd []byte) []byte {
		var c uint64
		if cur != nil {
			c = binary.LittleEndian.Uint64(cur)
		}
		c += binary.LittleEndian.Uint64(upd)
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, c)
		return out
	}
	err := w.Run(func(c *Comm) error {
		win, err := NewWindow(c, 0, 2, sum)
		if err != nil {
			return err
		}
		one := make([]byte, 8)
		binary.LittleEndian.PutUint64(one, 1)
		for i := 0; i < perRank; i++ {
			if err := win.Accumulate(i%2, one); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			win.WaitApplied(4 * perRank)
			total := binary.LittleEndian.Uint64(win.Read(0)) + binary.LittleEndian.Uint64(win.Read(1))
			if total != 4*perRank {
				return fmt.Errorf("total %d want %d", total, 4*perRank)
			}
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowSlotRangeAndOwnerErrors(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if _, err := NewWindow(c, 9, 1, nil); err == nil {
			return fmt.Errorf("want owner range error")
		}
		win, err := NewWindow(c, 0, 1, func(cur, u []byte) []byte { return u })
		if err != nil {
			return err
		}
		if err := win.Accumulate(3, nil); err == nil {
			return fmt.Errorf("want slot range error")
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounting(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 100))
		}
		_, _, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().Messages() < 1 || w.Stats().Bytes() < 100 {
		t.Errorf("stats: %d msgs %d bytes", w.Stats().Messages(), w.Stats().Bytes())
	}
	w.Stats().Reset()
	if w.Stats().Messages() != 0 {
		t.Error("reset failed")
	}
}

func TestRunPropagatesPanics(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		// rank 0 blocks forever on a message that never comes; the
		// panic-induced close must unblock it with ErrClosed.
		_, _, err := c.Recv(1, 0)
		return err
	})
	if err == nil {
		t.Fatal("want error from panic")
	}
}

func TestWorldCloseUnblocksRecv(t *testing.T) {
	w := NewWorld(2)
	errc := make(chan error, 1)
	go func() {
		errc <- w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				return nil // exits immediately
			}
			_, _, err := c.Recv(0, 42)
			if err != ErrClosed {
				return fmt.Errorf("want ErrClosed, got %v", err)
			}
			return nil
		})
	}()
	// Run closes the world only after all ranks return, so close it from
	// outside to unblock rank 1.
	w.Close()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestNewWorldPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewWorld(0)
}

func TestRecvTags(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("five"))
			c.Send(1, 7, []byte("seven"))
			return nil
		}
		// match either tag; order of arrival decides
		p1, st1, err := c.RecvTags(Any, 5, 7)
		if err != nil {
			return err
		}
		p2, st2, err := c.RecvTags(0, 5, 7)
		if err != nil {
			return err
		}
		got := map[int]string{st1.Tag: string(p1), st2.Tag: string(p2)}
		if got[5] != "five" || got[7] != "seven" {
			return fmt.Errorf("got %v", got)
		}
		// non-listed tags must not match: nothing else queued
		if _, _, ok, _ := c.TryRecv(Any, 5); ok {
			return fmt.Errorf("message double-delivered")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagsSourceFilter(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send(2, 4, []byte("from0"))
		case 1:
			return c.Send(2, 4, []byte("from1"))
		default:
			p, st, err := c.RecvTags(1, 4)
			if err != nil {
				return err
			}
			if string(p) != "from1" || st.Source != 1 {
				return fmt.Errorf("source filter broken: %q %+v", p, st)
			}
			// the other message is still there
			p2, _, err := c.Recv(0, 4)
			if err != nil || string(p2) != "from0" {
				return fmt.Errorf("remaining message lost: %q %v", p2, err)
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBarrier8(b *testing.B) {
	w := NewWorld(8)
	done := make(chan error, 1)
	start := make(chan struct{})
	go func() {
		done <- w.Run(func(c *Comm) error {
			<-start
			for i := 0; i < b.N; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	b.ResetTimer()
	close(start)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAlltoAllv8(b *testing.B) {
	w := NewWorld(8)
	payload := make([]byte, 1024)
	done := make(chan error, 1)
	start := make(chan struct{})
	go func() {
		done <- w.Run(func(c *Comm) error {
			<-start
			out := make([][]byte, 8)
			for i := range out {
				out[i] = payload
			}
			for i := 0; i < b.N; i++ {
				if _, err := c.AlltoAllv(out); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	b.ResetTimer()
	close(start)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

func BenchmarkWindowAccumulate(b *testing.B) {
	w := NewWorld(4)
	done := make(chan error, 1)
	start := make(chan struct{})
	go func() {
		done <- w.Run(func(c *Comm) error {
			win, err := NewWindow(c, 0, 64, func(cur, u []byte) []byte { return u })
			if err != nil {
				return err
			}
			<-start
			payload := make([]byte, 128)
			for i := 0; i < b.N; i++ {
				if err := win.Accumulate(i%64, payload); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			return win.Free()
		})
	}()
	b.ResetTimer()
	close(start)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

func TestWorldAccessors(t *testing.T) {
	w := NewWorld(3)
	if w.Size() != 3 {
		t.Errorf("Size %d", w.Size())
	}
	c := w.Comm(1)
	if c.Rank() != 1 || c.Size() != 3 || c.WorldRank(2) != 2 {
		t.Error("Comm accessors wrong")
	}
	w.Close()
}

func TestWindowReadOwnerAccumulate(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		win, err := NewWindow(c, 1, 2, func(cur, u []byte) []byte { return append(cur, u...) })
		if err != nil {
			return err
		}
		// the owner can accumulate into its own window
		if c.Rank() == 1 {
			if err := win.Accumulate(1, []byte{9}); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			win.WaitApplied(1)
			if got := win.Read(1); len(got) != 1 || got[0] != 9 {
				return fmt.Errorf("owner accumulate lost: %v", got)
			}
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}
