package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/topk"
)

// Wire formats of the engine's messages. Queries and results are encoded
// manually (not gob) because they are the hot path: the paper's engine
// moves one query message per (query, partition) pair and one result
// record back.

func putFloat32(b []byte, x float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(x)) }
func getFloat32(b []byte) float32    { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }
func putUint64(b []byte, x uint64)   { binary.LittleEndian.PutUint64(b, x) }
func getUint64(b []byte) uint64      { return binary.LittleEndian.Uint64(b) }
func putUint32(b []byte, x uint32)   { binary.LittleEndian.PutUint32(b, x) }
func getUint32(b []byte) uint32      { return binary.LittleEndian.Uint32(b) }

// Message tags.
const (
	tagQuery  = 1 // master -> worker: queryMsg
	tagEOQ    = 2 // master -> worker: end of queries (Algorithm 3/4)
	tagResult = 3 // worker -> master: resultMsg (two-sided mode)
	tagDone   = 4 // worker -> master: workerDone
	tagOwner  = 5 // owner -> host and back (multiple-owner strategy)
	tagHeader = 9 // master -> worker: batchHeader (per-worker, replaces Bcast
	// so the master can address retry rounds to a subset of workers and
	// tolerate dead ranks)
	tagJoin = 10 // master -> worker: joinMsg, the first message of a run
)

// queryMsg is a routed query dispatched to one partition host.
type queryMsg struct {
	QueryID   uint32
	Partition int32
	K         uint16
	Vec       []float32
}

func encodeQuery(m queryMsg) []byte {
	buf := make([]byte, 10+4*len(m.Vec))
	binary.LittleEndian.PutUint32(buf[0:], m.QueryID)
	binary.LittleEndian.PutUint32(buf[4:], uint32(m.Partition))
	binary.LittleEndian.PutUint16(buf[8:], m.K)
	for i, x := range m.Vec {
		binary.LittleEndian.PutUint32(buf[10+4*i:], math.Float32bits(x))
	}
	return buf
}

func decodeQuery(b []byte) (queryMsg, error) {
	if len(b) < 10 || (len(b)-10)%4 != 0 {
		return queryMsg{}, fmt.Errorf("core: malformed query message (%d bytes)", len(b))
	}
	m := queryMsg{
		QueryID:   binary.LittleEndian.Uint32(b[0:]),
		Partition: int32(binary.LittleEndian.Uint32(b[4:])),
		K:         binary.LittleEndian.Uint16(b[8:]),
		Vec:       make([]float32, (len(b)-10)/4),
	}
	for i := range m.Vec {
		m.Vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[10+4*i:]))
	}
	return m, nil
}

// resultMsg carries the local k-NN of one query in one partition, plus
// the work performed (for the cost model and Figure 5). Seq is the batch
// round the result answers; the master uses it to discard results from
// rounds that have already been retried elsewhere.
type resultMsg struct {
	QueryID   uint32
	Partition int32
	Seq       uint32
	DistComps int64
	Results   []topk.Result
}

func encodeResult(m resultMsg) []byte {
	buf := make([]byte, 24+12*len(m.Results))
	binary.LittleEndian.PutUint32(buf[0:], m.QueryID)
	binary.LittleEndian.PutUint32(buf[4:], uint32(m.Partition))
	binary.LittleEndian.PutUint32(buf[8:], m.Seq)
	binary.LittleEndian.PutUint64(buf[12:], uint64(m.DistComps))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(m.Results)))
	off := 24
	for _, r := range m.Results {
		binary.LittleEndian.PutUint64(buf[off:], uint64(r.ID))
		binary.LittleEndian.PutUint32(buf[off+8:], math.Float32bits(r.Dist))
		off += 12
	}
	return buf
}

func decodeResult(b []byte) (resultMsg, error) {
	if len(b) < 24 {
		return resultMsg{}, fmt.Errorf("core: malformed result message (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b[20:]))
	if len(b) != 24+12*n {
		return resultMsg{}, fmt.Errorf("core: result message length %d != %d", len(b), 24+12*n)
	}
	m := resultMsg{
		QueryID:   binary.LittleEndian.Uint32(b[0:]),
		Partition: int32(binary.LittleEndian.Uint32(b[4:])),
		Seq:       binary.LittleEndian.Uint32(b[8:]),
		DistComps: int64(binary.LittleEndian.Uint64(b[12:])),
		Results:   make([]topk.Result, n),
	}
	off := 24
	for i := range m.Results {
		m.Results[i] = topk.Result{
			ID:   int64(binary.LittleEndian.Uint64(b[off:])),
			Dist: math.Float32frombits(binary.LittleEndian.Uint32(b[off+8:])),
		}
		off += 12
	}
	return m, nil
}

// workerDone reports a worker's completion along with its per-partition
// processed-query counts and issued accumulate count (one-sided mode).
// Seq identifies the batch round the Done closes; a stale Seq tells the
// master a lagging worker has finally finished an old round.
type workerDone struct {
	Seq         uint32
	Processed   int64
	Accumulates int64
	DistComps   int64
	Hops        int64
}

func encodeDone(d workerDone) []byte {
	buf := make([]byte, 40)
	binary.LittleEndian.PutUint64(buf[0:], uint64(d.Seq))
	binary.LittleEndian.PutUint64(buf[8:], uint64(d.Processed))
	binary.LittleEndian.PutUint64(buf[16:], uint64(d.Accumulates))
	binary.LittleEndian.PutUint64(buf[24:], uint64(d.DistComps))
	binary.LittleEndian.PutUint64(buf[32:], uint64(d.Hops))
	return buf
}

func decodeDone(b []byte) (workerDone, error) {
	if len(b) != 40 {
		return workerDone{}, fmt.Errorf("core: malformed done message (%d bytes)", len(b))
	}
	return workerDone{
		Seq:         uint32(binary.LittleEndian.Uint64(b[0:])),
		Processed:   int64(binary.LittleEndian.Uint64(b[8:])),
		Accumulates: int64(binary.LittleEndian.Uint64(b[16:])),
		DistComps:   int64(binary.LittleEndian.Uint64(b[24:])),
		Hops:        int64(binary.LittleEndian.Uint64(b[32:])),
	}, nil
}

// mergeResultSlot is the cluster.MergeFunc used with the one-sided
// window: each slot accumulates the best k results of one query. The
// update is an encoded resultMsg; the current value is a compact
// (k-bounded) encoded resultMsg with Partition=-1.
func mergeResultSlot(k int) func(cur, update []byte) []byte {
	return func(cur, update []byte) []byte {
		um, err := decodeResult(update)
		if err != nil {
			return cur
		}
		if cur == nil {
			if len(um.Results) > k {
				um.Results = um.Results[:k]
			}
			um.Partition = -1
			return encodeResult(um)
		}
		cm, err := decodeResult(cur)
		if err != nil {
			return update
		}
		merged := topk.Merge(k, cm.Results, um.Results)
		return encodeResult(resultMsg{
			QueryID:   um.QueryID,
			Partition: -1,
			DistComps: cm.DistComps + um.DistComps,
			Results:   merged,
		})
	}
}
