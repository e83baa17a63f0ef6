package mpi

import "slices"

// Comm is a communicator handle held by one rank. As in MPI, every member of
// a communicator holds its own handle; handles of the same communicator share
// a context id so their traffic never matches other communicators' traffic.
// Every communicator spans the whole world (World.Start hands out the only
// ones), so a communicator rank is the world rank.
type Comm struct {
	r       *Rank
	ctx     int
	wins    int // per-handle window counter; consistent across members because CreateWin is collective
	collSeq int // per-handle collective sequence number, used to build tags
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.r.w.ranks) }

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.r.id }

// RankState exposes the underlying library state.
func (c *Comm) RankState() *Rank { return c.r }

// Now returns the current virtual time.
func (c *Comm) Now() float64 { return c.r.Now() }

// Compute advances this rank by d seconds of application computation.
func (c *Comm) Compute(d float64) { c.r.Compute(d) }

// Isend posts a non-blocking send of b to comm rank dst.
func (c *Comm) Isend(dst, tag int, b Buf) *Request {
	return c.r.isend(dst, tag, c.ctx, b)
}

// Irecv posts a non-blocking receive into b from comm rank src (or
// AnySource).
func (c *Comm) Irecv(src, tag int, b Buf) *Request {
	return c.r.irecv(src, tag, c.ctx, b)
}

// Send performs a blocking send.
func (c *Comm) Send(dst, tag int, b Buf) {
	req := c.Isend(dst, tag, b)
	c.r.Wait(req)
	c.r.w.freeReq(req)
}

// Recv performs a blocking receive and returns the matched request for its
// source/tag metadata. The caller owns the returned request; FreeRequests
// recycles it once the metadata has been read.
func (c *Comm) Recv(src, tag int, b Buf) *Request {
	req := c.Irecv(src, tag, b)
	c.r.Wait(req)
	return req
}

// Sendrecv exchanges messages with two peers, progressing both directions.
func (c *Comm) Sendrecv(dst, sendTag int, sbuf Buf, src, recvTag int, rbuf Buf) {
	rq := c.Irecv(src, recvTag, rbuf)
	sq := c.Isend(dst, sendTag, sbuf)
	c.r.Wait(rq, sq)
	c.r.w.freeReq(rq)
	c.r.w.freeReq(sq)
}

// Wait blocks until all given requests complete.
func (c *Comm) Wait(reqs ...*Request) { c.r.Wait(reqs...) }

// Reserve makes room in the rank's notice queue for the notices of n more open
// requests, one queued at a time each: a round that posts n receives sizes
// the queue once, where appending to it would regrow it by doubling. It
// changes no notice and no time.
func (c *Comm) Reserve(n int) { c.r.notices = slices.Grow(c.r.notices, n) }

// WaitHandles blocks until all requests behind the handles complete; freed
// requests read as done.
func (c *Comm) WaitHandles(hs []ReqHandle) {
	c.ArmHandles(hs)
	c.r.waitUntil()
	c.r.waitHs, c.r.waitSeen = nil, 0
}

// TestHandles performs one progress pass and reports completion of all
// requests behind the handles.
func (c *Comm) TestHandles(hs []ReqHandle) bool { return c.r.TestHandles(hs) }

// FreeRequests returns completed requests to the world's pool (see
// Rank.FreeRequests).
func (c *Comm) FreeRequests(reqs ...*Request) { c.r.FreeRequests(reqs...) }

// FreeHandles returns the completed requests behind still-live handles to
// the pool; already-freed handles are skipped.
func (c *Comm) FreeHandles(hs []ReqHandle) { c.r.FreeHandles(hs) }

// WaitFor blocks inside MPI until pred holds, processing protocol notices as
// they arrive. Non-request completion conditions (put counters, window
// states) wait through this.
func (c *Comm) WaitFor(pred func() bool) {
	c.ArmFor(pred)
	c.r.waitUntil()
	c.r.waitPred = nil
}

// Stepper is a WaitSteps hook.
type Stepper interface {
	Step() bool
}

// WaitSteps blocks inside MPI on the requests behind hs and then on each wait
// set next installs: next.Step runs in event context whenever the current set
// holds, and either returns true to end the wait or re-arms it with
// ArmHandles or ArmFor and returns false. A multi-round collective thus
// starts its next round at the instant the last one completes, as LibNBC's
// progress engine does, and its rank is resumed once for the whole wait.
func (c *Comm) WaitSteps(hs []ReqHandle, next Stepper) {
	c.r.waitNext = next
	c.WaitHandles(hs)
	c.r.waitNext, c.r.waitPred = nil, nil
}

// ArmHandles, inside a WaitSteps hook, makes the requests behind hs the next
// wait set, charging what WaitHandles charges on entry: one progress pass
// that tests every open request.
func (c *Comm) ArmHandles(hs []ReqHandle) {
	c.r.chargeTest()
	c.r.waitHs, c.r.waitPred, c.r.waitSeen = hs, nil, 0
}

// ArmFor, inside a WaitSteps hook, makes pred the next wait set, charging
// what WaitFor charges on entry: one progress pass.
func (c *Comm) ArmFor(pred func() bool) {
	c.r.charge(c.r.net().Params().OProgress)
	c.r.waitHs, c.r.waitPred, c.r.waitSeen = nil, pred, 0
}

// Test performs one progress pass and reports completion of all requests.
func (c *Comm) Test(reqs ...*Request) bool { return c.r.Test(reqs...) }

// Tag-space layout. Application point-to-point tags are expected below
// collTagBase; internal blocking-collective tags and non-blocking base tags
// each own a disjoint high range, and both ranges wrap around a finite
// window so million-iteration sweeps cannot run the tag space into the
// next range (or into integer overflow — the top of the NB range is
// ~2^33, far inside int64). A wraparound collision is only possible
// against a collective still in flight after a full window of later
// collectives on the same communicator — 2^22 blocking or 2^15
// non-blocking operations — which the non-overtaking matching of a
// single-threaded MPI makes unreachable in practice.
//
// The stride is sized for 10K+ rank worlds: schedule builders use the tag
// offset to disambiguate rounds/segments, and round counts grow with the
// rank count (pairwise Ialltoall uses n-1 offsets, the ring Iallgather n-2,
// a deeply segmented Ibcast size/segSize). The original 1024-wide stride
// silently aliased offset n into the NEXT operation's base tag once n
// exceeded 1024 ranks; 2^18 covers a quarter-million offsets, and the nbc
// executor panics on any schedule that would overrun it (see
// mpi.NBTagStride). TestFreshNBTagWindow and TestNBTagLargeRankBoundaries
// pin the layout.
const (
	collTagBase   = 1 << 24
	collTagWindow = 1 << 22

	nbTagBase   = 1 << 26
	nbTagStride = 1 << 18 // tag offsets 0..nbTagStride-1 per non-blocking base tag
	nbTagWindow = 1 << 15
)

// NBTagStride is the number of tag offsets each non-blocking base tag owns.
// Schedule executors must keep every tag offset strictly below this bound;
// an offset at or above it would alias a later operation's tag range.
const NBTagStride = nbTagStride

// nextCollTag returns a fresh tag for an internal collective operation.
// Collective tags live in their own high range so they never collide with
// application point-to-point tags, and recycle after collTagWindow
// operations.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return collTagBase + 1 + (c.collSeq-1)%collTagWindow
}

// FreshNBTag returns a fresh base tag for a non-blocking collective
// operation. Each base tag owns a stride of nbTagStride tag values so
// schedules can disambiguate segments/phases with tag offsets; base tags
// recycle after nbTagWindow operations. (A schedule segmenting a message
// into more than nbTagStride pieces would overrun its stride into the next
// base tag — keep TagOff below nbTagStride.) Like all collective state, it
// relies on every member calling it in the same order.
func (c *Comm) FreshNBTag() int {
	c.collSeq++
	return nbTagBase + ((c.collSeq-1)%nbTagWindow+1)*nbTagStride
}
