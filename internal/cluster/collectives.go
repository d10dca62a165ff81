package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Collective operations. Every rank of the communicator must call the
// same collective in the same order (the usual MPI contract); matching
// relies on per-pair FIFO delivery, which both transports guarantee.

// Barrier blocks until every rank has entered it (dissemination
// algorithm, ceil(log2 n) rounds).
func (c *Comm) Barrier() error {
	n := c.Size()
	if n == 1 {
		return nil
	}
	for step := 1; step < n; step *= 2 {
		to := (c.rank + step) % n
		from := (c.rank - step + n) % n
		if err := c.sendInternal(to, tagBarrier, nil); err != nil {
			return err
		}
		if _, _, err := c.Recv(from, tagBarrier); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's data to every rank and returns it (binomial
// tree). Non-root callers may pass nil.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	n := c.Size()
	if n == 1 {
		return data, nil
	}
	// rotate so the root is virtual rank 0
	vrank := (c.rank - root + n) % n
	if vrank != 0 {
		p, _, err := c.Recv(Any, tagBcast)
		if err != nil {
			return nil, err
		}
		data = p
	}
	// forward to children in the binomial tree
	for step := nextPow2(vrank + 1); vrank+step < n; step *= 2 {
		child := (vrank + step + root) % n
		if err := c.sendInternal(child, tagBcast, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

func lowestPow2(x int) int { return x & (-x) }

func nextPow2(x int) int {
	p := 1
	for p < x {
		p *= 2
	}
	return p
}

// Gatherv collects one payload from every rank at root, ordered by rank.
// Non-root callers receive nil.
func (c *Comm) Gatherv(root int, data []byte) ([][]byte, error) {
	if c.rank != root {
		return nil, c.sendInternal(root, tagGather, data)
	}
	out := make([][]byte, c.Size())
	out[root] = data
	for i := 0; i < c.Size(); i++ {
		if i == root {
			continue
		}
		p, _, err := c.Recv(i, tagGather)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// Scatterv distributes chunks[i] from root to rank i and returns the
// caller's chunk. Non-root callers pass nil.
func (c *Comm) Scatterv(root int, chunks [][]byte) ([]byte, error) {
	if c.rank == root {
		if len(chunks) != c.Size() {
			return nil, fmt.Errorf("cluster: Scatterv needs %d chunks, got %d", c.Size(), len(chunks))
		}
		for i, ch := range chunks {
			if i == root {
				continue
			}
			if err := c.sendInternal(i, tagScatter, ch); err != nil {
				return nil, err
			}
		}
		return chunks[root], nil
	}
	p, _, err := c.Recv(root, tagScatter)
	return p, err
}

// AlltoAllv sends out[i] to rank i and returns in[i] = the payload rank i
// sent to the caller — MPI_Alltoallv, the primitive Algorithm 2 uses to
// shuffle points between the halves during VP-tree construction.
func (c *Comm) AlltoAllv(out [][]byte) ([][]byte, error) {
	if len(out) != c.Size() {
		return nil, fmt.Errorf("cluster: AlltoAllv needs %d chunks, got %d", c.Size(), len(out))
	}
	in := make([][]byte, c.Size())
	in[c.rank] = out[c.rank]
	for i := 0; i < c.Size(); i++ {
		if i == c.rank {
			continue
		}
		if err := c.sendInternal(i, tagA2A, out[i]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < c.Size(); i++ {
		if i == c.rank {
			continue
		}
		p, _, err := c.Recv(i, tagA2A)
		if err != nil {
			return nil, err
		}
		in[i] = p
	}
	return in, nil
}

// AllreduceInt64 combines x across all ranks with op and returns the
// result on every rank (gather at 0, reduce, broadcast).
func (c *Comm) AllreduceInt64(x int64, op func(a, b int64) int64) (int64, error) {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(x))
	parts, err := c.Gatherv(0, buf)
	if err != nil {
		return 0, err
	}
	res := x
	if c.rank == 0 {
		for i, p := range parts {
			if i == 0 {
				continue
			}
			res = op(res, int64(binary.LittleEndian.Uint64(p)))
		}
		binary.LittleEndian.PutUint64(buf, uint64(res))
	}
	out, err := c.Bcast(0, buf)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(out)), nil
}

// Allgatherv gathers one payload from every rank on every rank.
func (c *Comm) Allgatherv(data []byte) ([][]byte, error) {
	parts, err := c.Gatherv(0, data)
	if err != nil {
		return nil, err
	}
	// flatten with length prefixes for the broadcast
	var flat []byte
	if c.rank == 0 {
		for _, p := range parts {
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
			flat = append(flat, hdr[:]...)
			flat = append(flat, p...)
		}
	}
	flat, err = c.Bcast(0, flat)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, c.Size())
	for off := 0; off < len(flat); {
		n := int(binary.LittleEndian.Uint32(flat[off:]))
		off += 4
		out = append(out, flat[off:off+n])
		off += n
	}
	if len(out) != c.Size() {
		return nil, fmt.Errorf("cluster: Allgatherv decoded %d parts, want %d", len(out), c.Size())
	}
	return out, nil
}

// Split partitions the communicator by color: ranks passing the same
// color form a new communicator, ordered by (key, old rank). Every rank
// must call Split; the returned communicator is never nil. This is
// MPI_Comm_split, used to halve the process group at each level of the
// distributed VP-tree construction.
func (c *Comm) Split(color, key int) (*Comm, error) {
	c.splitSeq++
	// exchange (color, key) tuples
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(int64(color)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(int64(key)))
	parts, err := c.Allgatherv(buf)
	if err != nil {
		return nil, err
	}
	type member struct{ color, key, rank int }
	var ms []member
	for r, p := range parts {
		ms = append(ms, member{
			color: int(int64(binary.LittleEndian.Uint64(p[0:8]))),
			key:   int(int64(binary.LittleEndian.Uint64(p[8:16]))),
			rank:  r,
		})
	}
	var mine []member
	for _, m := range ms {
		if m.color == color {
			mine = append(mine, m)
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	group := make([]int, len(mine))
	newRank := -1
	for i, m := range mine {
		group[i] = c.group[m.rank]
		if m.rank == c.rank {
			newRank = i
		}
	}
	return &Comm{
		t:     c.t,
		id:    hash64(c.id, c.splitSeq, uint64(int64(color))+1<<32),
		rank:  newRank,
		group: group,
	}, nil
}
