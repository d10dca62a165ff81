// Package cluster is the communication substrate that replaces MPI in
// this reproduction. The paper's engine is a hybrid MPI-OpenMP program;
// Go has neither, so cluster provides the same message-passing semantics
// on two transports:
//
//   - an in-process transport where every rank is a goroutine and message
//     delivery is a queue append (used for all experiments; goroutines
//     stand in for MPI ranks and worker-pool goroutines for OpenMP
//     threads);
//   - a TCP transport (see tcp.go) where each rank is an OS process,
//     used by cmd/annmaster and cmd/annworker for real multi-machine
//     deployments.
//
// The API mirrors the MPI subset the paper uses: Send/Recv with tags and
// wildcards (Algorithm 4's MPI_Test polling loop is one blocking
// RecvTags over the query and End-of-Queries tags, and RecvTagsWatch adds
// the deadline and watch set the master closes a round with), collectives
// (Barrier, Bcast, Gatherv, Scatterv, AlltoAllv, AllreduceInt64 —
// Algorithm 2's shuffle is an AlltoAllv), communicator Split for the
// recursive halving in the distributed VP-tree construction, and
// one-sided windows with atomic accumulate (window.go) standing in for
// MPI_Win_lock/MPI_Get_accumulate.
//
// All traffic is metered (message and byte counters per world) so the
// cost model can price communication the way Figure 5 of the paper does.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Any is the wildcard source or tag for Recv and TryRecv, mirroring
// MPI_ANY_SOURCE / MPI_ANY_TAG.
const Any = -1

// Reserved internal tags. User tags must be non-negative.
const (
	tagBarrier   = -2
	tagBcast     = -3
	tagGather    = -4
	tagScatter   = -5
	tagA2A       = -6
	tagReduce    = -7
	tagWindow    = -8
	tagSplit     = -9
	tagHeartbeat = -10 // TCP liveness probe; never enters a mailbox
)

// Envelope is one message in flight.
type Envelope struct {
	Comm    uint64 // communicator ID: messages only match within a communicator
	From    int32  // world rank of the sender
	Tag     int32
	Payload []byte
}

// mailbox is one rank's incoming queue: an unbounded FIFO with
// predicate-matching receive, which is what lets wildcard and tagged
// receives coexist (collectives, window traffic and user messages all
// flow through the same box, matched by communicator and tag). It also
// carries this rank's local view of peer liveness: transports mark world
// ranks down, which wakes waiting receivers so pending matching receives
// can fail fast with ErrPeerDown instead of blocking forever.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []Envelope
	closed bool
	down   map[int32]bool // world ranks this rank believes dead
	st     *Stats         // depth accounting; may be nil in unit tests
}

func newMailbox(st *Stats) *mailbox {
	m := &mailbox{st: st}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(e Envelope) {
	m.mu.Lock()
	if !m.closed {
		m.q = append(m.q, e)
		if m.st != nil {
			m.st.noteDepth(int64(len(m.q)))
		}
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// markDown records that a world rank died and wakes every waiter so
// receives that can no longer complete fail promptly.
func (m *mailbox) markDown(rank int32) {
	m.mu.Lock()
	if m.down == nil {
		m.down = make(map[int32]bool)
	}
	m.down[rank] = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *mailbox) isDown(rank int32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down[rank]
}

// downSet returns a snapshot of the dead world ranks.
func (m *mailbox) downSet() []int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int32, 0, len(m.down))
	for r := range m.down {
		out = append(out, r)
	}
	return out
}

// takeOpts controls a matching receive beyond the basic block/poll pair:
// an absolute deadline, the set of world ranks that could still produce a
// match (all dead -> ErrPeerDown), and extra ranks to watch (any dead ->
// ErrPeerDown, used by the master to react to a worker death while
// receiving from the wildcard source).
type takeOpts struct {
	block    bool
	deadline time.Time // zero means no deadline
	senders  []int32   // candidate sender world ranks; nil = unconstrained
	watch    []int32   // world ranks whose death aborts the receive
}

// take removes and returns the first queued envelope matching pred. With
// block=false it returns ok=false immediately when nothing matches; with
// block=true it waits. A closed mailbox yields err.
func (m *mailbox) take(pred func(*Envelope) bool, block bool) (Envelope, bool, error) {
	return m.takeWith(pred, takeOpts{block: block})
}

func (m *mailbox) takeWith(pred func(*Envelope) bool, o takeOpts) (Envelope, bool, error) {
	if !o.deadline.IsZero() {
		if d := time.Until(o.deadline); d > 0 {
			// The callback locks the mutex so the broadcast cannot slip
			// into the window between a deadline check and cond.Wait.
			timer := time.AfterFunc(d, func() {
				m.mu.Lock()
				defer m.mu.Unlock()
				m.cond.Broadcast()
			})
			defer timer.Stop()
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i := range m.q {
			if pred(&m.q[i]) {
				e := m.q[i]
				m.q = append(m.q[:i], m.q[i+1:]...)
				if m.st != nil {
					m.st.noteDepth(int64(len(m.q)))
				}
				return e, true, nil
			}
		}
		if m.closed {
			return Envelope{}, false, ErrClosed
		}
		if len(m.down) > 0 {
			for _, w := range o.watch {
				if m.down[w] {
					return Envelope{}, false, &PeerDownError{Rank: int(w)}
				}
			}
			if len(o.senders) > 0 {
				allDown, first := true, int32(-1)
				for _, s := range o.senders {
					if !m.down[s] {
						allDown = false
						break
					}
					if first < 0 {
						first = s
					}
				}
				if allDown {
					return Envelope{}, false, &PeerDownError{Rank: int(first)}
				}
			}
		}
		if !o.deadline.IsZero() && !time.Now().Before(o.deadline) {
			return Envelope{}, false, ErrTimeout
		}
		if !o.block {
			return Envelope{}, false, nil
		}
		m.cond.Wait()
	}
}

// ErrClosed is returned when communicating on a torn-down world.
var ErrClosed = errors.New("cluster: world closed")

// ErrTimeout is returned by deadline receives when the deadline expires
// before a matching message arrives.
var ErrTimeout = errors.New("cluster: receive timed out")

// ErrPeerDown is the sentinel matched (via errors.Is) by PeerDownError,
// the typed error deadline- and liveness-aware operations return when a
// peer has been detected dead.
var ErrPeerDown = errors.New("cluster: peer down")

// PeerDownError reports that a peer rank was detected dead (read-loop
// EOF, heartbeat timeout, or explicit kill). Rank is a communicator rank
// when returned from a Comm receive, and a world rank when surfaced
// straight from a transport send.
type PeerDownError struct {
	Rank int
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("cluster: peer rank %d is down", e.Rank)
}

// Is makes errors.Is(err, ErrPeerDown) succeed.
func (e *PeerDownError) Is(target error) bool { return target == ErrPeerDown }

// transport delivers envelopes between world ranks.
type transport interface {
	// send delivers e to world rank "to".
	send(to int, e Envelope) error
	// box returns this rank's mailbox.
	box() *mailbox
	// registry returns the shared-object registry if all ranks share an
	// address space (in-process transport), else nil.
	registry() *registry
	// stats returns the world-level traffic accounting.
	stats() *Stats
}

// Comm is a communicator: a group of ranks that can exchange messages
// isolated from other communicators, like an MPI_Comm.
type Comm struct {
	t     transport
	id    uint64
	rank  int   // rank within this communicator
	group []int // group[i] = world rank of communicator rank i

	splitSeq uint64 // per-instance collective-order counter for Split/Window IDs
	winSeq   uint64
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank returns the world rank behind communicator rank r.
func (c *Comm) WorldRank(r int) int { return c.group[r] }

// localOf maps a world rank to a communicator rank (-1 if absent).
func (c *Comm) localOf(world int32) int {
	for i, w := range c.group {
		if w == int(world) {
			return i
		}
	}
	return -1
}

// Status describes a received message.
type Status struct {
	Source int // communicator rank of the sender
	Tag    int
	Bytes  int
}

// Send delivers payload to communicator rank "to" with the given tag.
// It corresponds to MPI_Send; with the unbounded mailboxes of this
// runtime it never blocks, so MPI_Isend maps to it too.
func (c *Comm) Send(to, tag int, payload []byte) error {
	if to < 0 || to >= len(c.group) {
		return fmt.Errorf("cluster: send to invalid rank %d (size %d)", to, c.Size())
	}
	if tag < 0 {
		return fmt.Errorf("cluster: user tags must be non-negative, got %d", tag)
	}
	return c.sendInternal(to, tag, payload)
}

func (c *Comm) sendInternal(to, tag int, payload []byte) error {
	s := c.t.stats()
	s.count(len(payload))
	err := c.t.send(c.group[to], Envelope{
		Comm:    c.id,
		From:    int32(c.group[c.rank]),
		Tag:     int32(tag),
		Payload: payload,
	})
	if err != nil {
		return c.mapDown(err)
	}
	return nil
}

// match builds the receive predicate for (from, tag) with wildcards.
func (c *Comm) match(from, tag int) func(*Envelope) bool {
	return func(e *Envelope) bool {
		if e.Comm != c.id {
			return false
		}
		if tag != Any && int(e.Tag) != tag {
			return false
		}
		if from != Any {
			return int(e.From) == c.group[from]
		}
		// wildcard source: sender must still be a member
		return c.localOf(e.From) >= 0
	}
}

// matchTags builds the receive predicate for (from, any of tags).
func (c *Comm) matchTags(from int, tags []int) func(*Envelope) bool {
	return func(e *Envelope) bool {
		if e.Comm != c.id {
			return false
		}
		hit := false
		for _, t := range tags {
			if int(e.Tag) == t {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
		if from != Any {
			return int(e.From) == c.group[from]
		}
		return c.localOf(e.From) >= 0
	}
}

// sendersOf lists the world ranks that could satisfy a receive from
// "from": the one rank, or every other member for the wildcard source.
func (c *Comm) sendersOf(from int) []int32 {
	if from != Any {
		return []int32{int32(c.group[from])}
	}
	out := make([]int32, 0, len(c.group)-1)
	for i, w := range c.group {
		if i != c.rank {
			out = append(out, int32(w))
		}
	}
	return out
}

// mapDown rewrites a transport-level PeerDownError (world rank) into the
// caller's communicator rank space.
func (c *Comm) mapDown(err error) error {
	var pd *PeerDownError
	if errors.As(err, &pd) {
		if l := c.localOf(int32(pd.Rank)); l >= 0 {
			return &PeerDownError{Rank: l}
		}
	}
	return err
}

// Recv blocks until a message from "from" (or Any) with tag "tag" (or
// Any) arrives and returns its payload. It fails with ErrPeerDown when
// every rank that could produce a match has been detected dead.
func (c *Comm) Recv(from, tag int) ([]byte, Status, error) {
	e, _, err := c.t.box().takeWith(c.match(from, tag), takeOpts{block: true, senders: c.sendersOf(from)})
	if err != nil {
		return nil, Status{}, c.mapDown(err)
	}
	return e.Payload, c.status(e), nil
}

// RecvTags blocks until a message from "from" (or Any) carrying any of
// the listed user tags arrives. Worker threads use it to wait for either
// a query or the End-of-Queries command with one blocking call instead
// of an MPI_Test poll loop.
func (c *Comm) RecvTags(from int, tags ...int) ([]byte, Status, error) {
	return c.RecvTagsWatch(from, 0, nil, tags...)
}

// RecvTagsWatch is the deadline- and failure-aware receive the serving
// protocol is built on: it waits for a message from "from" (or Any)
// carrying one of tags, for at most timeout (<= 0 means forever), and
// additionally aborts with a *PeerDownError as soon as any of the
// watched communicator ranks is detected dead — even if other senders
// could still produce messages. The master watches the workers it is
// collecting from; workers watch the master.
func (c *Comm) RecvTagsWatch(from int, timeout time.Duration, watch []int, tags ...int) ([]byte, Status, error) {
	o := takeOpts{block: true, senders: c.sendersOf(from)}
	if timeout > 0 {
		o.deadline = time.Now().Add(timeout)
	}
	for _, w := range watch {
		o.watch = append(o.watch, int32(c.group[w]))
	}
	e, _, err := c.t.box().takeWith(c.matchTags(from, tags), o)
	if err != nil {
		return nil, Status{}, c.mapDown(err)
	}
	return e.Payload, c.status(e), nil
}

// IsDown reports whether the given communicator rank has been detected
// dead by this rank's failure detector.
func (c *Comm) IsDown(rank int) bool {
	return c.t.box().isDown(int32(c.group[rank]))
}

// Down returns the communicator ranks currently believed dead, sorted.
func (c *Comm) Down() []int {
	var out []int
	for _, w := range c.t.box().downSet() {
		if l := c.localOf(w); l >= 0 {
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}

// TryRecv is a non-blocking Recv: ok=false when no matching message is
// queued (MPI_Iprobe + MPI_Recv).
func (c *Comm) TryRecv(from, tag int) ([]byte, Status, bool, error) {
	e, ok, err := c.t.box().take(c.match(from, tag), false)
	if err != nil {
		return nil, Status{}, false, err
	}
	if !ok {
		return nil, Status{}, false, nil
	}
	return e.Payload, c.status(e), true, nil
}

func (c *Comm) status(e Envelope) Status {
	return Status{Source: c.localOf(e.From), Tag: int(e.Tag), Bytes: len(e.Payload)}
}
