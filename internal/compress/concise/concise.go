// Package concise implements the CONCISE (Compressed 'n' Composable Integer
// Set) bitmap compression scheme of Colantonio and Di Pietro (Information
// Processing Letters 110(16), 2010). It is the codec the TKD paper selects
// for IBIG after comparing it with WAH (Fig. 10): same 31-bit-group layout
// as WAH, but sequence (fill) words may embed one "flipped" bit in their
// first group, which lets CONCISE absorb near-uniform groups that WAH must
// store as literals. The serving index stores no CONCISE column (bitmapidx
// keeps every column dense); this package serves the experiments that
// reproduce Figs. 10–11 and Table 3, and bitmapidx.Load, which decompresses
// the CONCISE columns of an index file an earlier build wrote.
//
// Word layout (32-bit words):
//
//   - literal:     1 | 31 payload bits
//   - 0-sequence:  00 | 5-bit position p | 25-bit counter n
//   - 1-sequence:  01 | 5-bit position p | 25-bit counter n
//
// A sequence word covers n+1 consecutive 31-bit groups. If p > 0, bit p-1 of
// the first group is flipped relative to the fill value.
package concise

import (
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/compress/codec"
)

const (
	literalFlag = uint32(1) << 31
	seqOneFlag  = uint32(1) << 30
	posShift    = 25
	posMask     = uint32(31) << posShift
	counterMask = uint32(1)<<posShift - 1
	maxCounter  = counterMask
)

// Bitmap is a CONCISE-compressed bit vector.
type Bitmap struct {
	words []uint32
	nbits int
}

// SizeBytes returns the compressed payload size in bytes.
func (b *Bitmap) SizeBytes() int { return len(b.words) * 4 }

// Persist exposes the logical length and raw compressed words for
// serialization.
func (b *Bitmap) Persist() (nbits int, words []uint32) { return b.nbits, b.words }

// Restore rebuilds a bitmap from Persist output. The words are adopted, not
// copied.
func Restore(nbits int, words []uint32) *Bitmap {
	return &Bitmap{nbits: nbits, words: words}
}

// Compress encodes v.
func Compress(v *bitvec.Vector) *Bitmap {
	b := &Bitmap{nbits: v.Len()}
	for g := range codec.NumGroups(v.Len()) {
		b.appendGroup(codec.Slice(v, g))
	}
	return b
}

func (b *Bitmap) appendGroup(g uint32) {
	switch g {
	case 0:
		b.appendSeq(0)
	case codec.GroupMask:
		b.appendSeq(1)
	default:
		b.words = append(b.words, literalFlag|g)
	}
}

// appendSeq extends the bitmap with one pure fill group of the given bit,
// merging with a preceding compatible word where the format allows:
//   - a preceding same-type sequence word absorbs the group by counter+1;
//   - a preceding literal that is "dirty by one bit" relative to the fill
//     becomes a mixed sequence word with its position field set.
func (b *Bitmap) appendSeq(bit uint32) {
	n := len(b.words)
	if n > 0 {
		last := b.words[n-1]
		if last&literalFlag == 0 {
			// Sequence word: extend when same fill type and counter not full.
			if (last&seqOneFlag != 0) == (bit == 1) && last&counterMask < maxCounter {
				b.words[n-1] = last + 1
				return
			}
		} else {
			payload := last & codec.GroupMask
			if bit == 0 && bits.OnesCount32(payload) == 1 {
				p := uint32(bits.TrailingZeros32(payload)) + 1
				b.words[n-1] = p<<posShift | 1 // 0-seq, 2 groups
				return
			}
			if bit == 0 && payload == 0 {
				b.words[n-1] = 1 // pure 0-seq, 2 groups
				return
			}
			if bit == 1 && payload == codec.GroupMask {
				b.words[n-1] = seqOneFlag | 1
				return
			}
			if bit == 1 && bits.OnesCount32(payload) == codec.GroupBits-1 {
				p := uint32(bits.TrailingZeros32(^payload&codec.GroupMask)) + 1
				b.words[n-1] = seqOneFlag | p<<posShift | 1
				return
			}
		}
	}
	w := uint32(0) // counter 0 => covers one group
	if bit == 1 {
		w |= seqOneFlag
	}
	b.words = append(b.words, w)
}

// DecompressInto reconstructs the original bit vector into dst (which must
// have the bitmap's logical length), avoiding allocation on hot paths.
func (b *Bitmap) DecompressInto(dst *bitvec.Vector) {
	if dst.Len() != b.nbits {
		panic("concise: DecompressInto length mismatch")
	}
	b.emitAll(codec.NewWriterInto(dst))
}

// emitAll decodes the word stream run by run. A mixed sequence word decodes
// as its flipped first group followed by a pure fill of the rest.
func (b *Bitmap) emitAll(w *codec.Writer) {
	for _, x := range b.words {
		if x&literalFlag != 0 {
			w.Emit(x&codec.GroupMask, 1)
			continue
		}
		fill := uint32(0)
		if x&seqOneFlag != 0 {
			fill = codec.GroupMask
		}
		groups := int(x&counterMask) + 1
		if pos := (x & posMask) >> posShift; pos > 0 {
			w.Emit(fill^(1<<(pos-1)), 1)
			groups--
		}
		w.Emit(fill, groups)
	}
}
