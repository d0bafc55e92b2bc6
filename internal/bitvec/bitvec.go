// Package bitvec provides dense fixed-length bit vectors.
//
// Bit vectors are the "vertical" representation used by the bitmap index of
// the TKD paper (§4.3): one bit per object in the dataset, one vector per
// (dimension, value-rank) column. The hot path of the BIG/IBIG algorithms is
// the d-way intersection of such columns, so And/AndNot/Count are implemented
// over whole 64-bit words.
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

// FromIndices builds a vector of length n with the given bit positions set.
func FromIndices(n int, idx []int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
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

// Xor sets v = v ^ o in place and returns v.
func (v *Vector) Xor(o *Vector) *Vector {
	v.mustMatch(o)
	for i := range v.words {
		v.words[i] ^= o.words[i]
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

// NextSet returns the index of the first set bit at or after i, or -1.
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i / wordBits
	w := v.words[wi] >> (i % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// AndCount returns |v & o| without materializing the intersection.
func (v *Vector) AndCount(o *Vector) int {
	v.mustMatch(o)
	c := 0
	for i := range v.words {
		c += bits.OnesCount64(v.words[i] & o.words[i])
	}
	return c
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

// AndTie sets v &= (q &^ p) | m in one pass and returns v: the step of the
// scoring kernel that keeps, of a candidate dimension's rows, those tying its
// bucket (in Q but not P) or missing the dimension. A nil q reads as all
// ones — bucket 0, whose Q-column constrains nothing.
func (v *Vector) AndTie(q, p, m *Vector) *Vector {
	v.mustMatch(p)
	v.mustMatch(m)
	vw := v.words
	pw, mw := p.words[:len(vw)], m.words[:len(vw)]
	if q == nil {
		for i := range vw {
			vw[i] &= ^pw[i] | mw[i]
		}
		return v
	}
	v.mustMatch(q)
	qw := q.words[:len(vw)]
	for i := range vw {
		vw[i] &= qw[i]&^pw[i] | mw[i]
	}
	return v
}

// OrAndNot sets v |= a &^ b and returns v; a nil a reads as all ones (bits
// past the length may then be set in the last word: AND the result with a
// trimmed vector before counting).
func (v *Vector) OrAndNot(a, b *Vector) *Vector {
	v.mustMatch(b)
	vw := v.words
	bw := b.words[:len(vw)]
	if a == nil {
		for i := range vw {
			vw[i] |= ^bw[i]
		}
		return v
	}
	v.mustMatch(a)
	aw := a.words[:len(vw)]
	for i := range vw {
		vw[i] |= aw[i] &^ bw[i]
	}
	return v
}

// IntersectCount returns |v0 & v1 & …| via a word-level cascade without
// materializing the intersection. It panics if vs is empty or lengths
// differ.
func IntersectCount(vs ...*Vector) int {
	if len(vs) == 0 {
		panic("bitvec: IntersectCount of nothing")
	}
	switch len(vs) {
	case 1:
		return vs[0].Count()
	case 2:
		return vs[0].AndCount(vs[1])
	}
	for _, v := range vs[1:] {
		vs[0].mustMatch(v)
	}
	c := 0
	for i := range vs[0].words {
		w := vs[0].words[i]
		for _, v := range vs[1:] {
			w &= v.words[i]
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// IntersectCountAbove reports whether |v0 & v1 & …| > tau, returning the
// exact count when it is. It walks the word cascade with a per-word early
// exit: as soon as the running count plus every remaining word's 64 bits can
// no longer beat tau, it bails with (0, false). Heuristic 2 of the paper
// only needs the bound-vs-τ verdict, so most pruned candidates stop after a
// fraction of the words.
func IntersectCountAbove(tau int, vs ...*Vector) (count int, above bool) {
	if len(vs) == 0 {
		panic("bitvec: IntersectCountAbove of nothing")
	}
	for _, v := range vs[1:] {
		vs[0].mustMatch(v)
	}
	nw := len(vs[0].words)
	c := 0
	for i := 0; i < nw; i++ {
		w := vs[0].words[i]
		for _, v := range vs[1:] {
			w &= v.words[i]
		}
		c += bits.OnesCount64(w)
		if c+(nw-i-1)*wordBits <= tau {
			return 0, false
		}
	}
	return c, c > tau
}

// AndNotForEachWord streams the nonzero words of a &^ b to fn along with the
// bit index of each word's first bit — set-difference iteration without a
// per-bit callback, for callers that only need the difference. (The BIG/IBIG
// scoring loop needs both a∧b and a∧¬b per word, so it streams the raw words
// itself; see bitmapidx.Cursor.Score.) fn returning false stops the iteration.
func AndNotForEachWord(a, b *Vector, fn func(base int, w uint64) bool) {
	a.mustMatch(b)
	for i := range a.words {
		if w := a.words[i] &^ b.words[i]; w != 0 {
			if !fn(i*wordBits, w) {
				return
			}
		}
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
