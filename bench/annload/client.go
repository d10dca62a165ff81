package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"
	"unsafe"
)

// conn is one keep-alive HTTP/1.1 connection driven with pre-framed
// request bytes: the client's work per request is a write, a response
// parse, and a status check.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one framed request and returns the status. The body is
// copied into keep when non-nil and discarded otherwise.
func (c *conn) do(req []byte, keep *bytes.Buffer) (int, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	var dst io.Writer = io.Discard
	if keep != nil {
		keep.Reset()
		dst = keep
	}
	_, err = io.Copy(dst, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// opKind classifies a request for the latency samples.
type opKind int

const (
	opSearch opKind = iota
	opUpsert
	opDelete
)

// traffic yields a client's request stream. next returns the framed
// request, its kind and how many operations it carries (queries,
// upserted points or deleted IDs).
type traffic interface {
	next() (req []byte, kind opKind, ops int)
	// acked tells the stream its latest request was acknowledged.
	acked()
}

// poolTraffic cycles a pre-framed pool; client c of n takes every n-th
// entry.
type poolTraffic struct {
	pool [][]byte
	pos  int
	step int
	ops  int
}

func (p *poolTraffic) next() ([]byte, opKind, int) {
	req := p.pool[p.pos%len(p.pool)]
	p.pos += p.step
	return req, opSearch, p.ops
}

func (p *poolTraffic) acked() {}

// writeLog records what a client's acknowledged writes changed, for the
// post-run truth and the reopen check.
type writeLog struct {
	upserted []upsertPoint
	deleted  []int64
}

// dead is the set of deleted IDs.
func (l writeLog) dead() map[int64]bool {
	dead := make(map[int64]bool, len(l.deleted))
	for _, id := range l.deleted {
		dead[id] = true
	}
	return dead
}

// mixedTraffic is mixed_rw's stream: per 100 requests, 4 upsert POSTs of
// 4 points, 2 delete POSTs of 2 IDs, 94 single searches alternating
// between the hot set and the cold pool. Write bodies are framed as they
// are sent, because every write needs IDs no earlier request used.
type mixedTraffic struct {
	c        *corpus
	rng      *rand.Rand
	hot      [][]byte
	cold     *poolTraffic
	i        int
	searches int
	// nextID hands out fresh upsert IDs; delIDs is this client's share of
	// the corpus IDs to delete, each used once.
	nextID, idStep int64
	delIDs         []int64
	log            writeLog
	pending        writeLog // the request in flight, committed on ack
	body, req      []byte
}

const (
	upsertPoints = 4
	deleteIDs    = 2
)

func (m *mixedTraffic) next() ([]byte, opKind, int) {
	slot := m.i % 100
	m.i++
	m.pending = writeLog{}
	switch {
	case slot%25 == 12:
		pts := make([]upsertPoint, upsertPoints)
		for j := range pts {
			pts[j] = upsertPoint{id: m.nextID, vec: m.c.newPointVector(m.rng, nil)}
			m.nextID += m.idStep
		}
		m.pending.upserted = pts
		m.body = upsertBody(m.body, pts)
		m.req = httpRequest(m.req, "/v1/upsert", m.body)
		return m.req, opUpsert, upsertPoints
	case slot%50 == 37 && len(m.delIDs) >= deleteIDs:
		ids := m.delIDs[:deleteIDs]
		m.delIDs = m.delIDs[deleteIDs:]
		m.pending.deleted = ids
		m.body = deleteBody(m.body, ids)
		m.req = httpRequest(m.req, "/v1/delete", m.body)
		return m.req, opDelete, deleteIDs
	}
	m.searches++
	if m.searches%2 == 0 {
		return m.hot[(m.searches/2)%len(m.hot)], opSearch, 1
	}
	return m.cold.next()
}

// acked commits the in-flight write, if any, to the log.
func (m *mixedTraffic) acked() {
	m.log.upserted = append(m.log.upserted, m.pending.upserted...)
	m.log.deleted = append(m.log.deleted, m.pending.deleted...)
}

// sample is one acknowledged request.
type sample struct {
	done time.Duration // completion, from the start of the phase
	ms   float64       // latency
	ops  int
	kind opKind
}

// loadResult is what the clients measured in one phase.
type loadResult struct {
	samples              []sample
	requests, ops, fails int64
	writePosts           int64
	firstErr             error
	length               time.Duration
	// cpu[i] is the process CPU time at the start of window i, cpu[len-1]
	// at the end of the phase.
	cpu []time.Duration
}

// windows is how many equal windows a phase is cut into. A metric is the
// median over the windows, so a stall of the machine that lasts a few
// seconds moves a few windows and not the result.
const windows = 10

// runPhase drives every client closed-loop for d: each sends its next
// request only after the previous reply arrived.
func runPhase(conns []*conn, streams []traffic, d time.Duration) loadResult {
	results := make([]loadResult, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &results[i]
			st.samples = make([]sample, 0, 1<<16)
			for time.Now().Before(end) {
				req, kind, ops := streams[i].next()
				t0 := time.Now()
				status, err := conns[i].do(req, nil)
				done := time.Now()
				st.requests++
				if err != nil || status != http.StatusOK {
					st.fails++
					if st.firstErr == nil {
						st.firstErr = fmt.Errorf("request %d: status %d, err %v", st.requests, status, err)
					}
					if err != nil {
						return // the connection is unusable
					}
					continue
				}
				st.ops += int64(ops)
				st.samples = append(st.samples, sample{
					done: done.Sub(start), ms: float64(done.Sub(t0).Nanoseconds()) / 1e6, ops: ops, kind: kind,
				})
				streams[i].acked()
				if kind != opSearch {
					st.writePosts++
				}
			}
		}(i)
	}
	out := loadResult{length: d, cpu: []time.Duration{cpuTime()}}
	for w := 1; w <= windows; w++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(w) / windows)))
		out.cpu = append(out.cpu, cpuTime())
	}
	wg.Wait()
	for _, st := range results {
		out.samples = append(out.samples, st.samples...)
		out.requests += st.requests
		out.ops += st.ops
		out.fails += st.fails
		out.writePosts += st.writePosts
		if out.firstErr == nil {
			out.firstErr = st.firstErr
		}
	}
	return out
}

// heldBytes is the memory the result's samples occupy.
func (l loadResult) heldBytes() int {
	return cap(l.samples) * int(unsafe.Sizeof(sample{}))
}

// window is one slice of a phase. last is the latest completion in it.
type window struct {
	ops                int
	last               time.Duration
	searchMS, upsertMS []float64
}

// byWindow sorts the samples into the phase's windows by completion
// time. Requests in flight at the deadline count in the last window.
func (l loadResult) byWindow() []window {
	ws := make([]window, windows)
	for _, s := range l.samples {
		i := min(int(s.done*windows/l.length), windows-1)
		ws[i].ops += s.ops
		ws[i].last = max(ws[i].last, s.done)
		switch s.kind {
		case opSearch:
			ws[i].searchMS = append(ws[i].searchMS, s.ms)
		case opUpsert:
			ws[i].upsertMS = append(ws[i].upsertMS, s.ms)
		}
	}
	return ws
}

// loadSummary is a measured phase reduced to its end-to-end numbers,
// each the median over the windows that have a value, plus the whole
// phase's search sample size and p99.
type loadSummary struct {
	qps, p50, p90, cpuPerOp float64
	upsertP50               float64 // NaN when no upsert was acknowledged
	searches                int
	p99                     float64
}

func (l loadResult) summarize() loadSummary {
	var qps, p50, p90, cpu, up, all []float64
	var prev time.Duration
	for i, w := range l.byWindow() {
		if w.ops > 0 {
			// The window's operations took from the last completion before
			// it to the last completion in it.
			qps = append(qps, float64(w.ops)/(w.last-prev).Seconds())
			prev = w.last
			cpu = append(cpu, float64((l.cpu[i+1]-l.cpu[i]).Nanoseconds())/1e6/float64(w.ops))
		}
		if len(w.searchMS) > 0 {
			p50 = append(p50, quantile(w.searchMS, 0.5))
			p90 = append(p90, quantile(w.searchMS, 0.9))
			all = append(all, w.searchMS...)
		}
		if len(w.upsertMS) > 0 {
			up = append(up, median(w.upsertMS))
		}
	}
	return loadSummary{
		qps: median(qps), p50: median(p50), p90: median(p90), cpuPerOp: median(cpu), upsertP50: median(up),
		searches: len(all), p99: quantile(all, 0.99),
	}
}
