package nbc

import (
	"fmt"
	"math/bits"
	"strconv"

	"nbctune/internal/mpi"
)

// Broadcast schedules. The paper's Ibcast function set is parameterized by
// two attributes: the fan-out of the broadcast tree and the internal segment
// size. Fan-out 0 denotes the linear algorithm (root sends directly to every
// peer, an "infinite" number of children), 1 the chain, 2..5 k-ary trees,
// and FanoutBinomial the binomial tree. With the three segment sizes
// {32KiB, 64KiB, 128KiB} this yields the paper's 7 x 3 = 21 implementations.

// FanoutBinomial selects the binomial tree shape ("N" in the paper).
const FanoutBinomial = -1

// Paper-default segment sizes for the Ibcast function set.
var DefaultSegSizes = []int{32 * 1024, 64 * 1024, 128 * 1024}

// DefaultFanouts lists the paper's seven tree shapes.
var DefaultFanouts = []int{0, 1, 2, 3, 4, 5, FanoutBinomial}

// bcastTree computes the parent (or -1) and children of vrank in the chosen
// tree over n virtual ranks rooted at 0.
func bcastTree(n, vrank, fanout int) (parent int, children []int) {
	switch {
	case fanout == 0: // linear: root is everyone's parent
		if vrank == 0 {
			children = make([]int, 0, n-1)
			for c := 1; c < n; c++ {
				children = append(children, c)
			}
			return -1, children
		}
		return 0, nil
	case fanout == FanoutBinomial:
		if vrank == 0 {
			parent = -1
		} else {
			parent = vrank & (vrank - 1) // clear lowest set bit
		}
		// Children: vrank | bit for bits below the lowest set bit (or all
		// bits for the root), far child first.
		low := vrank & (-vrank)
		if vrank == 0 {
			low = nextPow2(n)
		}
		children = make([]int, 0, bits.TrailingZeros(uint(low))) // one per bit below low
		for bit := low / 2; bit >= 1; bit /= 2 {
			if vrank+bit < n {
				children = append(children, vrank+bit)
			}
		}
		return parent, children
	case fanout >= 1:
		if vrank == 0 {
			parent = -1
		} else {
			parent = (vrank - 1) / fanout
		}
		for c := fanout*vrank + 1; c <= fanout*vrank+fanout && c < n; c++ {
			children = append(children, c)
		}
		return parent, children
	default:
		panic(fmt.Sprintf("nbc: invalid fanout %d", fanout))
	}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// FanoutName renders a fanout value the way the paper refers to it.
func FanoutName(fanout int) string {
	switch fanout {
	case 0:
		return "linear"
	case 1:
		return "chain"
	case FanoutBinomial:
		return "binomial"
	case FanoutTorus:
		return "torus"
	default:
		return strconv.Itoa(fanout) + "-ary"
	}
}

// IbcastName names the broadcast schedule of a tree shape and segment size
// without building it. Every constructor takes its schedule's name from such
// a function, so a function set can declare its functions before any of them
// is compiled (core.schedFn). A segment of whole KiB is spelled in KiB
// ("seg32k"), any other in bytes ("seg1536"), so no two sizes share a name.
// The names of the paper's function set and of its torus variants come from
// a table built once, so the builder, which every rank calls, allocates none.
func IbcastName(fanout, segSize int) string {
	if name, ok := ibcastNames[[2]int{fanout, segSize}]; ok {
		return name
	}
	return ibcastName(fanout, segSize)
}

var ibcastNames = func() map[[2]int]string {
	m := map[[2]int]string{}
	for _, fanout := range append([]int{FanoutTorus}, DefaultFanouts...) {
		for _, segSize := range DefaultSegSizes {
			m[[2]int{fanout, segSize}] = ibcastName(fanout, segSize)
		}
	}
	return m
}()

func ibcastName(fanout, segSize int) string {
	seg := strconv.Itoa(segSize)
	if segSize%1024 == 0 {
		seg = strconv.Itoa(segSize/1024) + "k"
	}
	return "ibcast-" + FanoutName(fanout) + "-seg" + seg
}

// Ibcast builds this rank's schedule for a non-blocking broadcast of buf
// (virtual or real) from root, using the given tree fan-out and segment
// size. Segments pipeline down the tree: a rank forwards segment s to its
// children in the same round in which it receives segment s+1 from its
// parent.
func Ibcast(n, me, root int, buf mpi.Buf, fanout, segSize int) *Schedule {
	name := IbcastName(fanout, segSize)
	if n == 1 {
		return &Schedule{Name: name}
	}
	vrank := (me - root + n) % n
	parent, children := bcastTree(n, vrank, fanout)
	toWorld := func(v int) int { return (v + root) % n }

	if parent >= 0 {
		parent = toWorld(parent)
	}
	for i, c := range children {
		children[i] = toWorld(c)
	}
	return pipelined(name, n, buf, segSize, parent, children)
}

// CheckSegments refuses a size-byte broadcast that splits into more segSize
// segments than a schedule has tag offsets (mpi.NBTagStride): every segment
// of a pipelined broadcast is one tag offset.
func CheckSegments(size, segSize int) error {
	if n := numSegs(size, segSize); n > mpi.NBTagStride {
		return fmt.Errorf("a %d-byte broadcast in %d-byte segments needs %d segments, more than the %d tags a schedule has",
			size, segSize, n, mpi.NBTagStride)
	}
	return nil
}

// pipelined builds the schedule of one rank of a segmented broadcast tree
// over n comm ranks: parent (a comm rank, negative on the root) is whom it
// receives buf's segments from, children whom it sends them to, one entry per
// run of children a step apart. The root sends one segment per round; every
// other rank receives segment 0, then per round forwards the previous segment
// while receiving the next, and finally forwards the last.
func pipelined(name string, n int, buf mpi.Buf, segSize, parent int, children []int) *Schedule {
	size := buf.Len()
	S := numSegs(size, segSize)
	runs := runCount(children, n)
	ops, rounds := S*runs, S
	if parent >= 0 {
		ops, rounds = S*(runs+1), S+1
	}
	b := newBuilder(name, buf, ops, rounds)
	ref := b.buf(buf)
	sendTo := func(si int) {
		off, l := seg(size, segSize, si)
		b.fanOut(OpSend, si, children, n, ref, off, l)
	}
	if parent < 0 {
		for si := 0; si < S; si++ {
			sendTo(si)
			b.end()
		}
		return b.done()
	}
	for si := 0; si <= S; si++ {
		if si > 0 {
			sendTo(si - 1)
		}
		if si < S {
			off, l := seg(size, segSize, si)
			b.add(postOne(OpRecv, si, parent, ref, off, l))
		}
		b.end()
	}
	return b.done()
}
