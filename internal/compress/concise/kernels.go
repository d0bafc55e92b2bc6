package concise

// Run-native kernels over the CONCISE word stream, mirroring the dense
// kernel signatures in internal/bitvec: multi-way intersection popcount with
// and without a threshold, galloping over sequence (fill) words without
// decompressing. A mixed sequence word (embedded flipped bit) decodes as one
// literal group followed by a pure fill run; DecompressInto walks the same
// runReader, so results are bit-identical to the dense reference.

import (
	"math/bits"

	"repro/internal/compress/codec"
)

const noTau = -1 << 62

// maxWay bounds the stack-allocated reader set of the multi-way kernels.
const maxWay = 64

// runReader walks a compressed word stream as (val, rep, fill) runs without
// allocating; pend* carries the pure-fill remainder of a mixed sequence
// word after its flipped first group is emitted.
type runReader struct {
	words   []uint32
	pos     int
	val     uint32
	rep     int
	fill    bool
	pendVal uint32
	pendRep int
}

// next decodes the next run; false when the stream is exhausted.
func (r *runReader) next() bool {
	if r.pendRep > 0 {
		r.val, r.rep, r.fill = r.pendVal, r.pendRep, true
		r.pendRep = 0
		return true
	}
	if r.pos >= len(r.words) {
		r.rep = 0
		return false
	}
	w := r.words[r.pos]
	r.pos++
	if w&literalFlag != 0 {
		r.val, r.rep, r.fill = w&codec.GroupMask, 1, false
		return true
	}
	fill := uint32(0)
	if w&seqOneFlag != 0 {
		fill = codec.GroupMask
	}
	groups := int(w&counterMask) + 1
	pos := (w & posMask) >> posShift
	if pos == 0 {
		r.val, r.rep, r.fill = fill, groups, true
		return true
	}
	// Mixed sequence: one flipped literal group, then a pure fill.
	r.val, r.rep, r.fill = fill^(1<<(pos-1)), 1, false
	if groups > 1 {
		r.pendVal, r.pendRep = fill, groups-1
	}
	return true
}

// ensure makes the current run non-empty; false at stream end.
func (r *runReader) ensure() bool {
	if r.rep > 0 {
		return true
	}
	return r.next()
}

// skip consumes n groups, galloping over whole runs.
func (r *runReader) skip(n int) {
	for n > 0 {
		if r.rep == 0 && !r.next() {
			return
		}
		t := n
		if t > r.rep {
			t = r.rep
		}
		r.rep -= t
		n -= t
	}
}

// IntersectCount returns |b0 & b1 & …| through a run-level gallop: each
// step skips the longest 0-sequence any operand offers, counts a stretch of
// all-ones groups shared by every operand in one multiplication, and pays a
// word AND + popcount only where some operand holds a literal. It panics if
// bs is empty or lengths differ.
func IntersectCount(bs ...*Bitmap) int {
	c, _ := intersectCount(noTau, bs)
	return c
}

// IntersectCountAbove reports whether |b0 & b1 & …| > tau, returning the
// exact count when it is, with the same early-exit contract as
// bitvec.IntersectCountAbove.
func IntersectCountAbove(tau int, bs ...*Bitmap) (count int, above bool) {
	return intersectCount(tau, bs)
}

func intersectCount(tau int, bs []*Bitmap) (int, bool) {
	if len(bs) == 0 {
		panic("concise: IntersectCount of nothing")
	}
	nbits := bs[0].nbits
	for _, b := range bs[1:] {
		if b.nbits != nbits {
			panic("concise: length mismatch")
		}
	}
	var stack [maxWay]runReader
	var rs []runReader
	if len(bs) <= maxWay {
		rs = stack[:len(bs)]
	} else {
		rs = make([]runReader, len(bs))
	}
	for i, b := range bs {
		rs[i] = runReader{words: b.words}
	}
	ng := codec.NumGroups(nbits)
	count, g := 0, 0
	for g < ng {
		maxZero := 0
		minOnes := ng - g
		allOnes := true
		for i := range rs {
			r := &rs[i]
			if !r.ensure() {
				maxZero = ng - g
				allOnes = false
				break
			}
			if r.fill && r.val == codec.GroupMask {
				if r.rep < minOnes {
					minOnes = r.rep
				}
			} else {
				allOnes = false
				if r.fill && r.rep > maxZero { // r.val == 0
					maxZero = r.rep
				}
			}
		}
		switch {
		case maxZero > 0:
			n := maxZero
			if n > ng-g {
				n = ng - g
			}
			for i := range rs {
				rs[i].skip(n)
			}
			g += n
		case allOnes:
			count += codec.OnesInGroups(g, minOnes, nbits)
			for i := range rs {
				rs[i].skip(minOnes)
			}
			g += minOnes
		default:
			w := codec.GroupMask
			for i := range rs {
				w &= rs[i].val
				rs[i].rep-- // ensured non-empty by the scan above
			}
			count += bits.OnesCount32(codec.ClampGroup(w, g, nbits))
			g++
		}
		if count+(ng-g)*codec.GroupBits <= tau {
			return 0, false
		}
	}
	return count, count > tau
}
