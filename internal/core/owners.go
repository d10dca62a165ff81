package core

import (
	"bytes"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/topk"
	"repro/internal/vec"
	"repro/internal/vptree"
)

// RunMultipleOwner implements the multiple-owner strategy of Section IV:
// every rank holds the routing tree and owns the queries assigned to it
// by hash; owners route their queries to the partition hosts and merge
// the replies themselves. There is no dedicated master rank: all P ranks
// host a partition, and rank 0 additionally gathers the final results.
//
// The paper found this slightly faster than master–worker at low core
// counts but worse at scale (it cannot do replication-based load
// balancing); the "owners" experiment reproduces that comparison.
//
// ds and queries are consulted on rank 0 only; results are returned on
// rank 0 (nil elsewhere).
func RunMultipleOwner(c *cluster.Comm, ds, queries *vec.Dataset, cfg Config) ([][]topk.Result, error) {
	cfg.Partitions = c.Size()
	p := c.Size()

	// Distribute data and build (everyone is a builder and a host).
	shard, err := ScatterDataset(c, 0, ds, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := cfg.fill(shard.Dim); err != nil {
		return nil, err
	}
	built, err := BuildDistributed(c, shard, cfg)
	if err != nil {
		return nil, err
	}

	// Share the routing tree with every rank.
	var treeBlob []byte
	if c.Rank() == 0 {
		var buf bytes.Buffer
		if err := built.Tree.Encode(&buf); err != nil {
			return nil, err
		}
		treeBlob = buf.Bytes()
	}
	treeBlob, err = c.Bcast(0, treeBlob)
	if err != nil {
		return nil, err
	}
	tree, err := vptree.ReadPartitionTree(bytes.NewReader(treeBlob))
	if err != nil {
		return nil, err
	}

	// Scatter the queries to their owners (query qi is owned by qi mod P
	// — the hash function of the paper's description).
	var chunks [][]byte
	if c.Rank() == 0 {
		byOwner := make([]*vec.Dataset, p)
		for o := range byOwner {
			byOwner[o] = vec.NewDataset(queries.Dim, queries.Len()/p+1)
		}
		for qi := 0; qi < queries.Len(); qi++ {
			byOwner[qi%p].Append(queries.At(qi), int64(qi))
		}
		chunks = make([][]byte, p)
		for o := range byOwner {
			var buf bytes.Buffer
			if err := byOwner[o].WriteBinary(&buf); err != nil {
				return nil, err
			}
			chunks[o] = buf.Bytes()
		}
	}
	mineRaw, err := c.Scatterv(0, chunks)
	if err != nil {
		return nil, err
	}
	mine, err := vec.ReadBinary(bytes.NewReader(mineRaw))
	if err != nil {
		return nil, err
	}

	// Dispatch my queries to their partition hosts.
	expectReplies := 0
	for i := 0; i < mine.Len(); i++ {
		q := mine.At(i)
		routes := tree.RouteTop(q, cfg.NProbe)
		for _, rt := range routes {
			msg := queryMsg{QueryID: uint32(mine.ID(i)), Partition: int32(rt.Partition), K: uint16(cfg.K), Vec: q}
			if err := c.Send(rt.Partition, tagOwner, encodeQuery(msg)); err != nil {
				return nil, err
			}
			expectReplies++
		}
	}
	// Announce that this owner is done sending requests.
	for r := 0; r < p; r++ {
		if err := c.Send(r, tagEOQ, nil); err != nil {
			return nil, err
		}
	}

	// Serve requests and collect replies until: all P owners signalled
	// EOQ (so, by FIFO, every request addressed to me has arrived), the
	// request queue is drained, and all my replies are in.
	collectors := make(map[uint32]*topk.Collector, mine.Len())
	for i := 0; i < mine.Len(); i++ {
		collectors[uint32(mine.ID(i))] = topk.New(cfg.K)
	}
	eoqSeen, replies := 0, 0
	for {
		if eoqSeen == p && replies == expectReplies {
			// drain any remaining requests, then leave
			pay, _, ok, err := c.TryRecv(cluster.Any, tagOwner)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if err := serveOwnerRequest(c, built, pay); err != nil {
				return nil, err
			}
			continue
		}
		pay, st, err := c.RecvTags(cluster.Any, tagOwner, tagResult, tagEOQ)
		if err != nil {
			return nil, err
		}
		switch st.Tag {
		case tagEOQ:
			eoqSeen++
		case tagOwner:
			if err := serveOwnerRequest(c, built, pay); err != nil {
				return nil, err
			}
		case tagResult:
			rm, err := decodeResult(pay)
			if err != nil {
				return nil, err
			}
			col := collectors[rm.QueryID]
			if col == nil {
				return nil, fmt.Errorf("core: reply for foreign query %d", rm.QueryID)
			}
			for _, x := range rm.Results {
				col.PushResult(x)
			}
			replies++
		}
	}

	// Gather per-owner results at rank 0.
	var buf bytes.Buffer
	for i := 0; i < mine.Len(); i++ {
		qid := uint32(mine.ID(i))
		blob := encodeResult(resultMsg{QueryID: qid, Partition: -1, Results: collectors[qid].Results()})
		var lenb [4]byte
		putUint32(lenb[:], uint32(len(blob)))
		buf.Write(lenb[:])
		buf.Write(blob)
	}
	parts, err := c.Gatherv(0, buf.Bytes())
	if err != nil {
		return nil, err
	}
	if c.Rank() != 0 {
		return nil, nil
	}
	out := make([][]topk.Result, queries.Len())
	for _, part := range parts {
		for off := 0; off < len(part); {
			n := int(getUint32(part[off:]))
			off += 4
			rm, err := decodeResult(part[off : off+n])
			if err != nil {
				return nil, err
			}
			out[rm.QueryID] = rm.Results
			off += n
		}
	}
	return out, nil
}

func serveOwnerRequest(c *cluster.Comm, built *Built, pay []byte) error {
	qm, err := decodeQuery(pay)
	if err != nil {
		return err
	}
	g := built.Replicas[int(qm.Partition)]
	if g == nil {
		return fmt.Errorf("core: rank %d does not host partition %d", c.Rank(), qm.Partition)
	}
	rs, hst, err := g.SearchFiltered(qm.Vec, int(qm.K), nil, nil)
	if err != nil {
		return err
	}
	// reply goes back to the owner: query qi is owned by qi mod P
	owner := int(qm.QueryID) % c.Size()
	return c.Send(owner, tagResult, encodeResult(resultMsg{
		QueryID:   qm.QueryID,
		Partition: qm.Partition,
		DistComps: hst.DistComps,
		Results:   rs,
	}))
}
