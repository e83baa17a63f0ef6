package mpi

// Blocking collective operations, modeled after Open MPI's "tuned" module:
// a decision function picks an algorithm from message size and communicator
// size, and the operation progresses continuously because the caller stays
// inside MPI for its whole duration. These are the baselines the paper
// compares the auto-tuned non-blocking operations against.

// ReduceOp combines src into dst element-wise. A nil ReduceOp is legal and
// means the reduction is timing-only (virtual payloads).
type ReduceOp func(dst, src []byte)

// SumFloat64 is a ReduceOp adding little-endian float64 vectors. Only tests
// reduce real data: it is the operator of the reduction conformance tests.
func SumFloat64(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		PutFloat64(dst[i:], GetFloat64(dst[i:])+GetFloat64(src[i:]))
	}
}

// MaxFloat64 is a ReduceOp taking the element-wise maximum of little-endian
// float64 vectors.
func MaxFloat64(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		if s := GetFloat64(src[i:]); s > GetFloat64(dst[i:]) {
			PutFloat64(dst[i:], s)
		}
	}
}

// pairwiseThreshold is the message size above which blocking Alltoall
// switches from the basic linear algorithm to pairwise exchange.
const pairwiseThreshold = 4096

// Barrier blocks until all ranks reach it (dissemination algorithm).
func (c *Comm) Barrier() {
	n := c.Size()
	if n == 1 {
		return
	}
	tag := c.nextCollTag()
	for dist := 1; dist < n; dist *= 2 {
		to := (c.r.id + dist) % n
		from := (c.r.id - dist + n) % n
		c.Sendrecv(to, tag, Virtual(1), from, tag, Virtual(1))
	}
}

// Bcast broadcasts b from root using a binomial tree.
func (c *Comm) Bcast(root int, b Buf) {
	n := c.Size()
	if n == 1 {
		return
	}
	tag := c.nextCollTag()
	vrank := (c.r.id - root + n) % n
	// Receive from parent.
	if vrank != 0 {
		parent := vrank & (vrank - 1) // clear lowest set bit
		c.FreeRequests(c.Recv((parent+root)%n, tag, b))
	}
	// Forward to children, highest distance first (classic binomial order).
	for dist := nextPow2(n); dist >= 1; dist /= 2 {
		if vrank&(dist-1) == 0 && vrank|dist != vrank && vrank+dist < n {
			if vrank&dist == 0 {
				c.Send((vrank+dist+root)%n, tag, b)
			}
		}
	}
}

// Reduce combines contributions element-wise onto root (binomial tree).
// send may alias recv at root; recv may be virtual on non-root ranks.
func (c *Comm) Reduce(root int, send, recv Buf, op ReduceOp) {
	n := c.Size()
	size := send.Len()
	acc := send.Clone()
	if n > 1 {
		tag := c.nextCollTag()
		vrank := (c.r.id - root + n) % n
		for dist := 1; dist < n; dist *= 2 {
			if vrank&dist != 0 {
				c.Send((vrank-dist+root)%n, tag, acc)
				break
			}
			peer := vrank + dist
			if peer < n {
				tmp := Virtual(size)
				if acc.HasData() {
					tmp = Bytes(make([]byte, size))
				}
				c.FreeRequests(c.Recv((peer+root)%n, tag, tmp))
				c.chargeReduce(size)
				if op != nil && acc.HasData() && tmp.HasData() {
					op(acc.Data(), tmp.Data())
				}
			}
		}
	}
	if c.r.id == root {
		Copy(recv, acc)
	}
}

// chargeReduce accounts the CPU cost of combining size bytes.
func (c *Comm) chargeReduce(size int) {
	c.r.charge(c.r.net().Params().CopyTime(size))
}

// Allreduce reduces to rank 0 and broadcasts the result through recv.
func (c *Comm) Allreduce(send, recv Buf, op ReduceOp) {
	c.Reduce(0, send, recv, op)
	c.Bcast(0, recv)
}

// Allgather gathers each rank's send block into recv (ring algorithm).
// recv must describe Size()*send.Len() bytes. Kept as the reference nbc's
// conformance tests check the Iallgather schedules against.
func (c *Comm) Allgather(send, recv Buf) {
	n := c.Size()
	ssize := send.Len()
	Copy(recv.Slice(c.r.id*ssize, ssize), send)
	if n == 1 {
		return
	}
	tag := c.nextCollTag()
	right := (c.r.id + 1) % n
	left := (c.r.id - 1 + n) % n
	cur := c.r.id
	for step := 0; step < n-1; step++ {
		prev := (cur - 1 + n) % n
		c.Sendrecv(right, tag, recv.Slice(cur*ssize, ssize),
			left, tag, recv.Slice(prev*ssize, ssize))
		cur = prev
	}
}

// Alltoall exchanges Size()-th blocks of send between every pair of ranks.
// send and recv must describe Size()*blockSize bytes. The decision function
// mirrors Open MPI tuned: basic linear for small blocks, pairwise exchange
// for large ones.
func (c *Comm) Alltoall(send, recv Buf) {
	n := c.Size()
	blockSize := send.Len() / n
	// Self block.
	Copy(recv.Slice(c.r.id*blockSize, blockSize), send.Slice(c.r.id*blockSize, blockSize))
	if n == 1 {
		return
	}
	tag := c.nextCollTag()
	if blockSize <= pairwiseThreshold {
		// Basic linear: post everything, wait for all.
		reqs := c.r.scratch[:0]
		for off := 1; off < n; off++ {
			peer := (c.r.id + off) % n
			reqs = append(reqs, c.Irecv(peer, tag, recv.Slice(peer*blockSize, blockSize)))
		}
		for off := 1; off < n; off++ {
			peer := (c.r.id - off + n) % n
			reqs = append(reqs, c.Isend(peer, tag, send.Slice(peer*blockSize, blockSize)))
		}
		c.Wait(reqs...)
		c.FreeRequests(reqs...)
		c.r.scratch = reqs[:0]
		return
	}
	// Pairwise exchange: n-1 structured steps.
	for step := 1; step < n; step++ {
		sendTo := (c.r.id + step) % n
		recvFrom := (c.r.id - step + n) % n
		c.Sendrecv(sendTo, tag, send.Slice(sendTo*blockSize, blockSize),
			recvFrom, tag, recv.Slice(recvFrom*blockSize, blockSize))
	}
}

// Gather collects each rank's send block at root (linear). recv must
// describe Size()*send.Len() bytes at root. Kept as the reference nbc's
// conformance tests check the Igather schedule against.
func (c *Comm) Gather(root int, send, recv Buf) {
	n := c.Size()
	ssize := send.Len()
	tag := c.nextCollTag()
	if c.r.id == root {
		reqs := c.r.scratch[:0]
		for i := 0; i < n; i++ {
			if i == root {
				Copy(recv.Slice(i*ssize, ssize), send)
				continue
			}
			reqs = append(reqs, c.Irecv(i, tag, recv.Slice(i*ssize, ssize)))
		}
		c.Wait(reqs...)
		c.FreeRequests(reqs...)
		c.r.scratch = reqs[:0]
		return
	}
	c.Send(root, tag, send)
}

// Scatter distributes recv.Len()-byte blocks from root to every rank
// (linear). send must describe Size()*recv.Len() bytes at root. Kept as the
// reference nbc's conformance tests check the Iscatter schedule against.
func (c *Comm) Scatter(root int, send, recv Buf) {
	n := c.Size()
	ssize := recv.Len()
	tag := c.nextCollTag()
	if c.r.id == root {
		reqs := c.r.scratch[:0]
		for i := 0; i < n; i++ {
			if i == root {
				Copy(recv, send.Slice(i*ssize, ssize))
				continue
			}
			reqs = append(reqs, c.Isend(i, tag, send.Slice(i*ssize, ssize)))
		}
		c.Wait(reqs...)
		c.FreeRequests(reqs...)
		c.r.scratch = reqs[:0]
		return
	}
	c.FreeRequests(c.Recv(root, tag, recv))
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}
