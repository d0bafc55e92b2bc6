// Package bitvec provides dense fixed-length bit vectors.
//
// Bit vectors are the "vertical" representation used by the bitmap index of
// the TKD paper (§4.3): one bit per object in the dataset, one vector per
// (dimension, value-rank) column. The hot path of the BIG/IBIG algorithms is
// the d-way intersection of such columns, so And/AndNot/Count are implemented
// over whole 64-bit words, and the two counting kernels of a candidate's score
// (IntersectCountAbove, TieCount) fold their columns a block of words at a
// time.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a dense bit vector of a fixed length. The zero value is an empty
// vector of length 0; use New to create a sized one.
type Vector struct {
	words []uint64
	n     int // number of valid bits
}

// New returns an all-zero vector with n bits.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewOnes returns an all-one vector with n bits.
func NewOnes(n int) *Vector {
	v := New(n)
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
	return v
}

// FromBits builds a vector from a slice of booleans.
func FromBits(bits []bool) *Vector {
	v := New(len(bits))
	for i, b := range bits {
		if b {
			v.Set(i)
		}
	}
	return v
}

// Parse builds a vector from a string of '0'/'1' runes, bit 0 first.
// It is used by tests to transcribe the paper's figures verbatim.
func Parse(s string) (*Vector, error) {
	v := New(len(s))
	for i, r := range s {
		switch r {
		case '1':
			v.Set(i)
		case '0':
		default:
			return nil, fmt.Errorf("bitvec: invalid rune %q at %d", r, i)
		}
	}
	return v, nil
}

// MustParse is Parse that panics on error; for tests and fixtures.
func MustParse(s string) *Vector {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// trim clears any bits beyond the logical length in the final word.
func (v *Vector) trim() {
	if r := v.n % wordBits; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (uint64(1) << r) - 1
	}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the underlying 64-bit words (read-only by convention).
// Compression codecs consume the vector through this view.
func (v *Vector) Words() []uint64 { return v.words }

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (i % wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (i % wordBits)
}

// SetBool sets bit i to b.
func (v *Vector) SetBool(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Get reports whether bit i is 1.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Count returns the number of set bits (population count).
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of src. Lengths must match.
func (v *Vector) CopyFrom(src *Vector) {
	v.mustMatch(src)
	copy(v.words, src.words)
}

func (v *Vector) mustMatch(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// And sets v = v & o in place and returns v.
func (v *Vector) And(o *Vector) *Vector {
	v.mustMatch(o)
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
	return v
}

// Or sets v = v | o in place and returns v.
func (v *Vector) Or(o *Vector) *Vector {
	v.mustMatch(o)
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
	return v
}

// AndNot sets v = v &^ o in place and returns v.
func (v *Vector) AndNot(o *Vector) *Vector {
	v.mustMatch(o)
	for i := range v.words {
		v.words[i] &^= o.words[i]
	}
	return v
}

// Not flips every bit in place and returns v.
func (v *Vector) Not() *Vector {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.trim()
	return v
}

// SetAll sets every bit to 1.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// Reset sets every bit to 0.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Equal reports whether v and o have identical length and contents.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit index, in ascending order. If fn
// returns false the iteration stops early.
func (v *Vector) ForEach(fn func(i int) bool) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Indices returns the positions of all set bits in ascending order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	v.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// And2Into sets dst = a & b in a single fused pass and returns dst, without
// reading dst's previous contents — the seed step of an AND cascade, saving
// the SetAll pass a Clone-then-And cascade would pay. dst may alias a or b.
func And2Into(dst, a, b *Vector) *Vector {
	dst.mustMatch(a)
	dst.mustMatch(b)
	dw, aw, bw := dst.words, a.words, b.words
	for i := range dw {
		dw[i] = aw[i] & bw[i]
	}
	return dst
}

// AndPairInto fuses two in-place intersections into one loop: q &= cq and
// p &= cp. The BIG/IBIG hot path intersects the Q-column and P-column of
// every dimension — adjacent columns of the index — so fusing the two
// cascades halves the number of passes over q/p and keeps both column reads
// in the same cache window.
func AndPairInto(q, p, cq, cp *Vector) {
	q.mustMatch(cq)
	p.mustMatch(cp)
	qw, pw := q.words, p.words
	cqw, cpw := cq.words, cp.words
	for i := range qw {
		qw[i] &= cqw[i]
		pw[i] &= cpw[i]
	}
}

// IntersectCount returns |v0 & v1 & …| through IntersectCountAbove's blocked
// cascade, without materializing the intersection. It panics if vs is empty
// or lengths differ.
func IntersectCount(vs ...*Vector) int {
	if len(vs) == 0 {
		panic("bitvec: IntersectCount of nothing")
	}
	c, _ := IntersectCountAbove(-1, vs...) // every count beats -1
	return c
}

// blockWords is the span of the blocked kernels (IntersectCountAbove,
// TieCount): each block of words is folded one column at a time into a
// scratch block and then popcounted — a tight loop per column over a block
// that stays in L1, instead of a loop over every column per word — and a
// threshold is checked once per block. The chunking is the one Roaring bitmaps
// build on (Chambi, Lemire, Kaser, Godin, arXiv:1402.6407).
const blockWords = 128

// BlockBits is how many bits one kernel block spans: a vector of at most this
// length is counted in a single block of every column.
const BlockBits = blockWords * wordBits

// Scratch is the blocked kernels' working memory: a block for E and one for
// ∩Q. A caller that counts many candidates (bitmapidx.Cursor) owns one and
// passes it to every call, so no call zeroes a stack frame of it and a fresh
// goroutine that counts does not grow its stack for it. The package-level
// kernels keep their blocks on the stack. A Scratch is not safe for
// concurrent use.
type Scratch struct {
	e, q [blockWords]uint64
}

// ones is a block of all-ones words: what a fold starts from, and what a nil
// Q-column reads as.
var ones = func() (b [blockWords]uint64) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	return b
}()

// IntersectCountAbove reports whether |v0 & v1 & …| > tau, returning the
// exact count when it is. It walks the columns a block of words at a time and
// bails with (0, false) between blocks, as soon as the running count plus
// every remaining word's 64 bits can no longer beat tau. Heuristic 2 of the
// paper only needs the bound-vs-τ verdict, so most pruned candidates stop
// after a fraction of the words. A block ends where the bail-out can first
// fire — never later than blockWords, never earlier than one word — so the
// exit comes at the word a per-word check would take it.
func IntersectCountAbove(tau int, vs ...*Vector) (count int, above bool) {
	return intersectCountAbove(tau, vs, nil)
}

// IntersectCountAbove is the package-level IntersectCountAbove over s's
// blocks.
func (s *Scratch) IntersectCountAbove(tau int, vs ...*Vector) (count int, above bool) {
	return intersectCountAbove(tau, vs, &s.e)
}

// intersectCountAbove is IntersectCountAbove's pass; buf, the fold's block, is
// nil when the caller holds none.
func intersectCountAbove(tau int, vs []*Vector, buf *[blockWords]uint64) (int, bool) {
	if len(vs) == 0 {
		panic("bitvec: IntersectCountAbove of nothing")
	}
	for _, v := range vs[1:] {
		vs[0].mustMatch(v)
	}
	nw := len(vs[0].words)
	c := 0
	for lo := 0; lo < nw; {
		hi, ok := blockEnd(c, lo, nw, tau)
		if !ok {
			return 0, false
		}
		// One or two columns count straight from the columns. So do more
		// when the first block is cut short: the bail-out's slack only
		// shrinks as words are counted, so it may fire at any word from
		// here on.
		if lo == 0 && len(vs) > 2 && hi == min(nw, blockWords) {
			if buf == nil {
				return intersectCountAboveStack(tau, vs)
			}
			return intersectCountAboveN(tau, vs, buf)
		}
		c += countWords(vs, lo, hi)
		lo = hi
	}
	if c <= tau {
		return 0, false
	}
	return c, true
}

// intersectCountAboveStack is intersectCountAboveN over a block on its own
// frame, for callers without a Scratch. Inlined, it would put the block on
// the frame of every caller.
//
//go:noinline
func intersectCountAboveStack(tau int, vs []*Vector) (int, bool) {
	var buf [blockWords]uint64
	return intersectCountAboveN(tau, vs, &buf)
}

// intersectCountAboveN is IntersectCountAbove over three or more columns,
// which fold each block into buf before counting it.
func intersectCountAboveN(tau int, vs []*Vector, buf *[blockWords]uint64) (int, bool) {
	nw := len(vs[0].words)
	last := vs[len(vs)-1]
	c := 0
	for lo := 0; lo < nw; {
		hi, ok := blockEnd(c, lo, nw, tau)
		if !ok {
			return 0, false
		}
		b := buf[:hi-lo]
		andInto(b, vs[0].words[lo:hi], vs[1].words[lo:hi])
		for _, v := range vs[2 : len(vs)-1] {
			andInto(b, b, v.words[lo:hi])
		}
		c += andCount(b, b, last.words[lo:hi])
		lo = hi
	}
	if c <= tau {
		return 0, false
	}
	return c, true
}

// countWords returns |v0 & v1 & …| over words [lo, hi), a word at a time.
func countWords(vs []*Vector, lo, hi int) (c int) {
	if len(vs) <= 2 {
		a, b := vs[0].words[lo:hi], vs[len(vs)-1].words[lo:hi] // one column: x & x = x
		for j := range a {
			c += bits.OnesCount64(a[j] & b[j])
		}
		return c
	}
	for j := lo; j < hi; j++ {
		w := vs[0].words[j]
		for _, v := range vs[1:] {
			w &= v.words[j]
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// blockEnd returns where IntersectCountAbove's block from word lo of nw ends,
// c bits counted so far: at the first word where the bail-out could fire,
// capped at blockWords words. It returns false when the bail-out fires
// already — c plus every remaining word's bits cannot beat tau.
func blockEnd(c, lo, nw, tau int) (int, bool) {
	// slack is how many more zero bits bail out; a block of fewer words than
	// it takes to hold them cannot. A negative tau is beaten already.
	slack := blockWords * wordBits
	if tau >= 0 {
		if slack = c + (nw-lo)*wordBits - tau; slack <= 0 {
			return 0, false
		}
	}
	return min(lo+min((slack+wordBits-1)/wordBits, blockWords), nw), true
}

// Tie says how one term of TieCount enters E and W.
type Tie uint8

const (
	TieNone  Tie = iota // E ∩= M
	TieExact            // E ∩= (Q &^ P) ∪ M
	TieWalk             // E ∩= M, and W ∪= Q &^ P
)

// TieTerm is one candidate dimension of TieCount: its Q-, P- and missing
// columns and how the tie set Q &^ P enters. A nil Q reads as all ones
// (bucket 0, whose Q-column constrains nothing); P is read only when Tie is
// not TieNone.
type TieTerm struct {
	Q, P, M *Vector
	Tie     Tie
}

// TieCount is the scoring kernel's fused pass (bitmapidx/score.go): it
// returns |E|,
//
//	E = ∩_{TieExact} ((Q &^ P) ∪ M) ∩ ∩_{others} M
//
// — every bit of w's length when terms is empty — and, when some term is
// TieWalk, sets
//
//	w = ∩ Q ∩ ∪_{TieWalk} (Q &^ P)
//
// (w is not written otherwise), all in one blocked pass over the terms'
// columns.
func TieCount(w *Vector, terms []TieTerm) int {
	if !tieCheck(w, terms) {
		return tieCountStack(w, terms, nil)
	}
	var qbuf [blockWords]uint64
	return tieCountStack(w, terms, &qbuf)
}

// TieCount is the package-level TieCount over s's blocks.
func (s *Scratch) TieCount(w *Vector, terms []TieTerm) int {
	if !tieCheck(w, terms) {
		return tieCount(w, terms, &s.e, nil)
	}
	return tieCount(w, terms, &s.e, &s.q)
}

// tieCheck panics unless every column of terms has w's length and reports
// whether some term walks.
func tieCheck(w *Vector, terms []TieTerm) (walk bool) {
	for i := range terms {
		t := &terms[i]
		w.mustMatch(t.M)
		if t.Q != nil {
			w.mustMatch(t.Q)
		}
		if t.Tie != TieNone {
			w.mustMatch(t.P)
		}
		walk = walk || t.Tie == TieWalk
	}
	return walk
}

// tieCountStack is tieCount over an E block on its own frame, for callers
// without a Scratch.
//
//go:noinline
func tieCountStack(w *Vector, terms []TieTerm, qbuf *[blockWords]uint64) int {
	var ebuf [blockWords]uint64
	return tieCount(w, terms, &ebuf, qbuf)
}

// tieCount is TieCount's pass over the blocks ebuf (E) and qbuf (∩Q, nil when
// no term walks).
func tieCount(w *Vector, terms []TieTerm, ebuf, qbuf *[blockWords]uint64) int {
	if len(terms) == 0 {
		return w.n
	}
	nw := len(w.words)
	tail := ^uint64(0)
	if r := w.n % wordBits; r != 0 {
		tail = uint64(1)<<r - 1
	}
	c := 0
	for lo := 0; lo < nw; lo += blockWords {
		hi := min(lo+blockWords, nw)
		e, all := ebuf[:hi-lo], ones[:hi-lo]
		// src is what the next term folds into E, and qsrc what the next Q
		// folds into ∩Q: all ones until a term has written the block, so no
		// pass only fills one. The last term counts E as it writes it.
		src, qsrc := all, all
		var qa, wb []uint64
		if qbuf != nil {
			qa, wb = qbuf[:len(e)], w.words[lo:hi]
			clear(wb)
		}
		for i := range terms {
			t := &terms[i]
			m, q := t.M.words[lo:hi], all
			if t.Q != nil {
				q = t.Q.words[lo:hi]
			}
			var p []uint64
			if t.Tie != TieNone {
				p = t.P.words[lo:hi]
			}
			switch last := i == len(terms)-1; {
			case t.Tie == TieExact && last:
				c += tieAndCount(e, src, q, p, m)
			case t.Tie == TieExact:
				tieAnd(e, src, q, p, m)
			case last:
				c += andCount(e, src, m)
			default:
				andInto(e, src, m)
			}
			src = e
			if qa == nil {
				continue
			}
			if t.Q != nil {
				andInto(qa, qsrc, q)
				qsrc = qa
			}
			if t.Tie == TieWalk {
				tieOr(wb, q, p)
			}
		}
		// A nil Q read as all ones leaves bits past the length set.
		if hi == nw {
			c -= bits.OnesCount64(e[len(e)-1] &^ tail)
		}
		if qa != nil {
			andInto(wb, wb, qsrc)
			if hi == nw {
				wb[len(wb)-1] &= tail
			}
		}
	}
	return c
}

// The block kernels below each run one loop over one block of words. They
// stay out of line: inlined into tieCount's loop over the terms, whose state
// holds most registers, their counters spill to the stack and
// BenchmarkScoreKernel/inset reads ≈ 1.5× slower.

// andInto sets dst = src & a over dst's length; src may be dst.
//
//go:noinline
func andInto(dst, src, a []uint64) {
	src, a = src[:len(dst)], a[:len(dst)]
	for j := range dst {
		dst[j] = src[j] & a[j]
	}
}

// andCount is andInto returning the set bits of the dst it leaves.
//
//go:noinline
func andCount(dst, src, a []uint64) (c int) {
	src, a = src[:len(dst)], a[:len(dst)]
	for j := range dst {
		x := src[j] & a[j]
		dst[j] = x
		c += bits.OnesCount64(x)
	}
	return c
}

// tieAnd sets e = src & ((q &^ p) | m) over e's length; src may be e.
//
//go:noinline
func tieAnd(e, src, q, p, m []uint64) {
	src, q, p, m = src[:len(e)], q[:len(e)], p[:len(e)], m[:len(e)]
	for j := range e {
		e[j] = src[j] & (q[j]&^p[j] | m[j])
	}
}

// tieAndCount is tieAnd returning the set bits of the e it leaves.
//
//go:noinline
func tieAndCount(e, src, q, p, m []uint64) (c int) {
	src, q, p, m = src[:len(e)], q[:len(e)], p[:len(e)], m[:len(e)]
	for j := range e {
		x := src[j] & (q[j]&^p[j] | m[j])
		e[j] = x
		c += bits.OnesCount64(x)
	}
	return c
}

// tieOr sets w |= q &^ p over w's length.
//
//go:noinline
func tieOr(w, q, p []uint64) {
	q, p = q[:len(w)], p[:len(w)]
	for j := range w {
		w[j] |= q[j] &^ p[j]
	}
}

// String renders the vector as a '0'/'1' string, bit 0 first.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// SizeBytes returns the in-memory payload size of the vector in bytes.
// Used by the index-size accounting of Fig. 11.
func (v *Vector) SizeBytes() int { return len(v.words) * 8 }

// IntersectAll returns the AND of all vectors. It panics if vs is empty or
// lengths differ. The result is a fresh vector; inputs are not modified.
func IntersectAll(vs ...*Vector) *Vector {
	if len(vs) == 0 {
		panic("bitvec: IntersectAll of nothing")
	}
	out := vs[0].Clone()
	for _, v := range vs[1:] {
		out.And(v)
	}
	return out
}
