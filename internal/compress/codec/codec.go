// Package codec holds the pieces shared by the WAH and CONCISE bitmap
// compression codecs: both slice a bit vector into 31-bit groups and
// represent runs of all-zero / all-one groups compactly, so the group
// reader and writer are implemented once here.
package codec

import "repro/internal/bitvec"

// GroupBits is the payload width of one compressed group. Both WAH and
// CONCISE use 31-bit groups inside 32-bit words.
const GroupBits = 31

// GroupMask selects the low GroupBits bits of a word.
const GroupMask = uint32(1)<<GroupBits - 1

// NumGroups returns how many 31-bit groups cover n bits.
func NumGroups(n int) int {
	return (n + GroupBits - 1) / GroupBits
}

// Slice reads the 31-bit group at index g (bits [g*31, g*31+31)) from the
// vector. Bits beyond the vector's length read as zero.
func Slice(v *bitvec.Vector, g int) uint32 {
	words := v.Words()
	start := g * GroupBits
	wi := start / 64
	off := uint(start % 64)
	if wi >= len(words) {
		return 0
	}
	x := words[wi] >> off
	if off > 64-GroupBits && wi+1 < len(words) {
		x |= words[wi+1] << (64 - off)
	}
	return uint32(x) & GroupMask
}

// Writer reassembles 31-bit groups into a bit vector of a known length,
// writing whole words (not individual bits) so decompression stays cheap.
type Writer struct {
	v    *bitvec.Vector
	next int // next group index
}

// NewWriterInto returns a Writer that reassembles into dst, which is reset
// to zero first.
func NewWriterInto(dst *bitvec.Vector) *Writer {
	dst.Reset()
	return &Writer{v: dst}
}

// Emit appends `repeat` copies of the 31-bit group val. Bits beyond the
// vector length are dropped. A fill is written a word at a time — nothing
// for zeros, a range fill for ones — and only other groups one by one.
func (w *Writer) Emit(val uint32, repeat int) {
	if val == 0 {
		w.next += repeat
		return
	}
	words := w.v.Words()
	n := w.v.Len()
	if val == GroupMask {
		start := w.next * GroupBits
		w.next += repeat
		if end := min(w.next*GroupBits, n); start < end {
			sw, ew, first, last := wordSpan(start, end)
			if sw == ew {
				words[sw] |= first & last
				return
			}
			words[sw] |= first
			for wi := sw + 1; wi < ew; wi++ {
				words[wi] = ^uint64(0)
			}
			words[ew] |= last
		}
		return
	}
	for r := 0; r < repeat; r++ {
		off := w.next * GroupBits
		w.next++
		g := uint64(val)
		if off+GroupBits > n {
			if off >= n {
				continue
			}
			g &= (uint64(1) << (n - off)) - 1
		}
		wi, sh := off/64, uint(off%64)
		words[wi] |= g << sh
		if sh > 64-GroupBits && wi+1 < len(words) {
			words[wi+1] |= g >> (64 - sh)
		}
	}
}

// Vector returns the assembled vector.
func (w *Writer) Vector() *bitvec.Vector { return w.v }

// wordSpan locates the non-empty bit range [start, end) in 64-bit words: the
// first and last word it touches and the mask of its bits in each (when they
// are one word, the range is first & last).
func wordSpan(start, end int) (sw, ew int, first, last uint64) {
	return start / 64, (end - 1) / 64, ^uint64(0) << (start % 64), ^uint64(0) >> (63 - (end-1)%64)
}
