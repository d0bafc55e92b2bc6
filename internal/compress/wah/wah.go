// Package wah implements the 32-bit Word-Aligned Hybrid bitmap compression
// scheme of Wu, Otoo and Shoshani (SSDBM 2002), the codec the TKD paper
// compares CONCISE against before picking CONCISE for its bitmap index
// (Fig. 10). It exists for that comparison only — compress, decompress,
// measure — and the index never stores a WAH column. A WAH-compressed bitmap
// is a sequence of 32-bit words:
//
//   - literal word:  MSB = 0, low 31 bits hold one group verbatim;
//   - fill word:     MSB = 1, bit 30 is the fill bit, low 30 bits count how
//     many consecutive 31-bit groups equal that fill.
package wah

import (
	"repro/internal/bitvec"
	"repro/internal/compress/codec"
)

const (
	fillFlag    = uint32(1) << 31
	fillBitFlag = uint32(1) << 30
	maxFill     = fillBitFlag - 1 // 2^30 - 1 groups per fill word
)

// Bitmap is a WAH-compressed bit vector.
type Bitmap struct {
	words []uint32
	nbits int
}

// SizeBytes returns the compressed payload size in bytes.
func (b *Bitmap) SizeBytes() int { return len(b.words) * 4 }

// Compress encodes v.
func Compress(v *bitvec.Vector) *Bitmap {
	b := &Bitmap{nbits: v.Len()}
	ng := codec.NumGroups(v.Len())
	for g := 0; g < ng; g++ {
		switch grp := codec.Slice(v, g); grp {
		case 0:
			b.appendFill(fillFlag)
		case codec.GroupMask:
			b.appendFill(fillFlag | fillBitFlag)
		default:
			b.words = append(b.words, grp)
		}
	}
	return b
}

// appendFill appends one fill group of the given kind (fillFlag, with
// fillBitFlag set for a 1-fill), extending a trailing fill word of the same
// kind while its counter has room.
func (b *Bitmap) appendFill(kind uint32) {
	if n := len(b.words); n > 0 {
		if last := b.words[n-1]; last&^maxFill == kind && last&maxFill < maxFill {
			b.words[n-1] = last + 1
			return
		}
	}
	b.words = append(b.words, kind|1)
}

// DecompressInto reconstructs the original bit vector into dst (which must
// have the bitmap's logical length), avoiding allocation on hot paths.
func (b *Bitmap) DecompressInto(dst *bitvec.Vector) {
	if dst.Len() != b.nbits {
		panic("wah: DecompressInto length mismatch")
	}
	b.emitAll(codec.NewWriterInto(dst))
}

func (b *Bitmap) emitAll(w *codec.Writer) {
	for _, word := range b.words {
		switch {
		case word&fillFlag == 0:
			w.Emit(word, 1)
		case word&fillBitFlag != 0:
			w.Emit(codec.GroupMask, int(word&maxFill))
		default:
			w.Emit(0, int(word&maxFill))
		}
	}
}
