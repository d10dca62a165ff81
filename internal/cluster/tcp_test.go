package cluster

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// freeAddrs reserves n loopback ports and returns their addresses. The
// listeners are closed immediately; the tiny race window is acceptable
// in tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// runTCPWorld runs fn on n TCP ranks within one process (each over real
// sockets) and fails the test on any rank error.
func runTCPWorld(t *testing.T, n int, fn func(c *Comm) error) {
	t.Helper()
	addrs := freeAddrs(t, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	nodes := make([]*TCPNode, n)
	var mu sync.Mutex
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			node, comm, err := JoinTCP(rank, addrs, 10*time.Second)
			if err != nil {
				errs[rank] = err
				return
			}
			mu.Lock()
			nodes[rank] = node
			mu.Unlock()
			errs[rank] = fn(comm)
		}(r)
	}
	wg.Wait()
	for _, node := range nodes {
		if node != nil {
			node.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTCPSendRecv(t *testing.T) {
	runTCPWorld(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 3, []byte("over the wire"))
		}
		p, st, err := c.Recv(0, 3)
		if err != nil {
			return err
		}
		if string(p) != "over the wire" || st.Source != 0 {
			return fmt.Errorf("got %q %+v", p, st)
		}
		return nil
	})
}

func TestTCPCollectives(t *testing.T) {
	runTCPWorld(t, 4, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		got, err := c.Bcast(2, pick(c.Rank() == 2, []byte("hello"), nil))
		if err != nil {
			return err
		}
		if string(got) != "hello" {
			return fmt.Errorf("bcast got %q", got)
		}
		sum, err := c.AllreduceInt64(int64(c.Rank()), func(a, b int64) int64 { return a + b })
		if err != nil {
			return err
		}
		if sum != 6 {
			return fmt.Errorf("sum %v", sum)
		}
		out := make([][]byte, 4)
		for i := range out {
			out[i] = []byte{byte(c.Rank()*10 + i)}
		}
		in, err := c.AlltoAllv(out)
		if err != nil {
			return err
		}
		for i := range in {
			if in[i][0] != byte(i*10+c.Rank()) {
				return fmt.Errorf("a2a in[%d]=%d", i, in[i][0])
			}
		}
		return nil
	})
}

func TestTCPSplitAndWindow(t *testing.T) {
	runTCPWorld(t, 4, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 2 {
			return fmt.Errorf("split size %d", sub.Size())
		}
		// window over TCP uses the message-emulated path
		win, err := NewWindow(c, 0, 1, func(cur, u []byte) []byte {
			out := append([]byte(nil), cur...)
			return append(out, u...)
		})
		if err != nil {
			return err
		}
		if err := win.Accumulate(0, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			win.WaitApplied(4)
			if got := win.Read(0); len(got) != 4 {
				return fmt.Errorf("window has %d bytes", len(got))
			}
		}
		return win.Free()
	})
}

func TestTCPJoinErrors(t *testing.T) {
	if _, _, err := JoinTCP(5, []string{"127.0.0.1:0"}, time.Second); err == nil {
		t.Error("want rank range error")
	}
	if _, _, err := JoinTCP(0, []string{"256.0.0.1:99999"}, time.Second); err == nil {
		t.Error("want listen error")
	}
}

func TestTCPDialTimeout(t *testing.T) {
	addrs := freeAddrs(t, 2)
	node, comm, err := JoinTCP(0, addrs, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	// rank 1 never comes up; send must fail after the timeout
	if err := comm.Send(1, 0, nil); err == nil {
		t.Error("want dial timeout error")
	}
}

func pick(cond bool, a, b []byte) []byte {
	if cond {
		return a
	}
	return b
}
