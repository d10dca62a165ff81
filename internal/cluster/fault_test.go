package cluster

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// TestRecvTimeout checks the deadline of RecvTagsWatch — the receive
// that closes a master's collection round — both ways: expiry with no
// traffic, and normal delivery well inside the deadline.
func TestRecvTimeout(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0 := w.Comm(0)
	c1 := w.Comm(1)

	start := time.Now()
	_, _, err := c0.RecvTagsWatch(1, 50*time.Millisecond, nil, 7)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if el := time.Since(start); el < 40*time.Millisecond || el > 2*time.Second {
		t.Fatalf("timeout fired after %v", el)
	}

	if err := c1.Send(0, 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	p, st, err := c0.RecvTagsWatch(1, 5*time.Second, nil, 7)
	if err != nil || string(p) != "x" || st.Source != 1 {
		t.Fatalf("got %q %+v %v", p, st, err)
	}
}

// TestRecvPeerDownWorld asserts that a Recv blocked on a rank killed via
// KillRank fails promptly with ErrPeerDown instead of blocking forever.
func TestRecvPeerDownWorld(t *testing.T) {
	w := NewWorld(3)
	defer w.Close()
	c0 := w.Comm(0)

	type out struct {
		err error
		el  time.Duration
	}
	ch := make(chan out, 1)
	start := time.Now()
	go func() {
		_, _, err := c0.Recv(2, 9)
		ch <- out{err, time.Since(start)}
	}()
	time.Sleep(20 * time.Millisecond) // let the receiver block
	w.KillRank(2)
	select {
	case o := <-ch:
		if !errors.Is(o.err, ErrPeerDown) {
			t.Fatalf("want ErrPeerDown, got %v", o.err)
		}
		var pd *PeerDownError
		if !errors.As(o.err, &pd) || pd.Rank != 2 {
			t.Fatalf("want PeerDownError{Rank:2}, got %#v", o.err)
		}
		if o.el > 2*time.Second {
			t.Fatalf("peer-down detection took %v", o.el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5s after KillRank")
	}
	if !c0.IsDown(2) {
		t.Error("IsDown(2) = false after KillRank")
	}
	if d := c0.Down(); len(d) != 1 || d[0] != 2 {
		t.Errorf("Down() = %v, want [2]", d)
	}
	// Sends to the dead rank fail fast with the typed error.
	if err := c0.Send(2, 1, nil); !errors.Is(err, ErrPeerDown) {
		t.Errorf("send to dead rank: %v", err)
	}
}

// TestRecvTagsWatch asserts the master-style wildcard receive aborts as
// soon as a watched rank dies even though other senders are still alive.
func TestRecvTagsWatch(t *testing.T) {
	w := NewWorld(3)
	defer w.Close()
	c0 := w.Comm(0)

	ch := make(chan error, 1)
	go func() {
		_, _, err := c0.RecvTagsWatch(Any, 5*time.Second, []int{2}, 3, 4)
		ch <- err
	}()
	time.Sleep(20 * time.Millisecond)
	w.KillRank(2)
	select {
	case err := <-ch:
		var pd *PeerDownError
		if !errors.As(err, &pd) || pd.Rank != 2 {
			t.Fatalf("want PeerDownError{Rank:2}, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watched receive did not abort on peer death")
	}
}

// TestTCPPeerDown kills one TCP rank and asserts the surviving rank's
// blocked Recv fails promptly via read-loop EOF detection.
func TestTCPPeerDown(t *testing.T) {
	addrs := freeAddrs(t, 2)
	n0, c0, err := JoinTCP(0, addrs, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, c1, err := JoinTCP(1, addrs, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Establish the connection (and let rank 0 identify the peer).
	if err := c1.Send(0, 3, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c0.Recv(1, 3); err != nil {
		t.Fatal(err)
	}

	ch := make(chan error, 1)
	start := time.Now()
	go func() {
		_, _, err := c0.Recv(1, 3)
		ch <- err
	}()
	time.Sleep(20 * time.Millisecond)
	n1.Close() // rank 1 dies

	select {
	case err := <-ch:
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("want ErrPeerDown, got %v", err)
		}
		if el := time.Since(start); el > 3*time.Second {
			t.Fatalf("EOF detection took %v", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5s after peer close")
	}
	if n0.Stats().PeerDowns() == 0 {
		t.Error("PeerDowns counter not bumped")
	}
	// Sends to the dead peer fail fast, without a dial timeout.
	start = time.Now()
	if err := c0.Send(1, 3, nil); !errors.Is(err, ErrPeerDown) {
		t.Errorf("send to dead peer: %v", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("send to dead peer took %v", el)
	}
}

// TestTCPHeartbeatDetectsSilentPeer covers the staleness path: the peer
// process stays connected but silent (its heartbeats disabled and paused
// traffic), so only the heartbeat timeout can declare it dead... here we
// simulate by stopping the peer's heartbeats entirely.
func TestTCPHeartbeatDetectsSilentPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent heartbeat test")
	}
	addrs := freeAddrs(t, 2)
	n0, c0, err := JoinTCPOpts(0, addrs, TCPOptions{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	// Peer with heartbeats disabled: it will never probe back.
	n1, c1, err := JoinTCPOpts(1, addrs, TCPOptions{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	if err := c1.Send(0, 3, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c0.Recv(1, 3); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !c0.IsDown(1) {
		if time.Now().After(deadline) {
			t.Fatal("silent peer never declared dead by heartbeat timeout")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWithFaultsDrop checks deterministic drops: with DropProb 1 on one
// tag, that tag never arrives while other tags pass through.
func TestWithFaultsDrop(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0 := WithFaults(w.Comm(0), FaultPlan{Seed: 42, DropProb: 1, Tags: map[int]bool{5: true}})
	c1 := w.Comm(1)

	if err := c0.Send(1, 5, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := c0.Send(1, 6, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	p, _, err := c1.Recv(0, 6)
	if err != nil || string(p) != "kept" {
		t.Fatalf("tag 6: %q %v", p, err)
	}
	if _, _, ok, _ := c1.TryRecv(0, 5); ok {
		t.Fatal("dropped message arrived")
	}
	if w.Stats().FaultDropped() != 1 {
		t.Errorf("FaultDropped = %d, want 1", w.Stats().FaultDropped())
	}
}

// TestWithFaultsDelay checks that delays are injected and counted but
// messages still arrive in FIFO order.
func TestWithFaultsDelay(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0 := WithFaults(w.Comm(0), FaultPlan{Seed: 1, DelayProb: 1, MaxDelay: 5 * time.Millisecond})
	c1 := w.Comm(1)
	for i := 0; i < 5; i++ {
		if err := c0.Send(1, 2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		p, _, err := c1.Recv(0, 2)
		if err != nil || p[0] != byte(i) {
			t.Fatalf("msg %d: got %v %v", i, p, err)
		}
	}
	if w.Stats().FaultDelayed() != 5 {
		t.Errorf("FaultDelayed = %d, want 5", w.Stats().FaultDelayed())
	}
}

// TestMailboxDepthStats checks the operator-facing queue gauges.
func TestMailboxDepthStats(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0 := w.Comm(0)
	c1 := w.Comm(1)
	for i := 0; i < 10; i++ {
		if err := c0.Send(1, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if hw := w.Stats().MailboxHighWater(); hw < 10 {
		t.Errorf("high-water %d, want >= 10", hw)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := c1.Recv(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if d := w.Stats().MailboxDepth(); d != 0 {
		t.Errorf("depth %d after draining, want 0", d)
	}
}

// TestTCPBadFrameCounted writes a frame with an implausible length to a
// node and asserts the drop is counted instead of being silent.
func TestTCPBadFrameCounted(t *testing.T) {
	addrs := freeAddrs(t, 1)
	n0, _, err := JoinTCP(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()

	conn, err := net.Dial("tcp", n0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := make([]byte, 20)
	binary.LittleEndian.PutUint64(frame[0:8], 1)       // commID
	binary.LittleEndian.PutUint32(frame[8:12], 99)     // from (bogus)
	binary.LittleEndian.PutUint32(frame[12:16], 1)     // tag
	binary.LittleEndian.PutUint32(frame[16:20], 1<<31) // implausible length
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n0.Stats().BadFrames() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bad frame never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
