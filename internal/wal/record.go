package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/data"
)

// Record payloads. The first payload byte is the type; the frame (length +
// CRC32C) around the payload lives in wal.go.
//
//	row:        0x01 | u16 id length | id bytes | u16 dim | dim × f64 bits
//	checkpoint: 0x02 | u64 rows | u64 epoch | u64 fingerprint
//
// All integers little-endian. Missing dimensions ride as NaN bit patterns,
// matching the in-memory convention of internal/data.

const (
	recRow        byte = 0x01
	recCheckpoint byte = 0x02
)

// frameHeader is the per-record framing overhead: u32 length + u32 CRC32C.
const frameHeader = 8

// Row is one ingested object as logged: the ID and the full value vector
// with NaN for unobserved dimensions.
type Row = data.Row

// Checkpoint records a completed epoch publish: the first Rows row records
// of the log are included in the published epoch number Epoch, whose data
// fingerprint is Fingerprint. Recovery replays rows beyond Rows into a
// fresh epoch. The fingerprint is recorded for the operator reading a log;
// no code compares it (the persisted index carries its own), which is why
// the record format did not move when the fingerprint's definition did.
type Checkpoint struct {
	Rows        uint64
	Epoch       uint64
	Fingerprint uint64
}

// maxRowDim bounds a row record's dimension count; anything above it is a
// decode error, not an allocation request. internal/data caps datasets at
// 64 dimensions, so the bound is generous.
const maxRowDim = 1 << 10

// RecordType returns the payload's type byte (0 for an empty payload).
func RecordType(payload []byte) byte {
	if len(payload) == 0 {
		return 0
	}
	return payload[0]
}

// EncodeRow serializes r as a row record payload.
func EncodeRow(r Row) []byte {
	p := make([]byte, 0, 1+2+len(r.ID)+2+8*len(r.Values))
	p = append(p, recRow)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(r.ID)))
	p = append(p, r.ID...)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(r.Values)))
	for _, v := range r.Values {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
	}
	return p
}

// DecodeRow parses a row record payload.
func DecodeRow(payload []byte) (Row, error) {
	if RecordType(payload) != recRow {
		return Row{}, fmt.Errorf("wal: not a row record")
	}
	p := payload[1:]
	if len(p) < 2 {
		return Row{}, fmt.Errorf("wal: row record truncated before id")
	}
	idLen := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) < idLen {
		return Row{}, fmt.Errorf("wal: row record truncated inside id")
	}
	id := string(p[:idLen])
	p = p[idLen:]
	if len(p) < 2 {
		return Row{}, fmt.Errorf("wal: row record truncated before dim")
	}
	dim := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if dim > maxRowDim {
		return Row{}, fmt.Errorf("wal: row record claims %d dimensions", dim)
	}
	if len(p) != 8*dim {
		return Row{}, fmt.Errorf("wal: row record has %d value bytes, want %d", len(p), 8*dim)
	}
	values := make([]float64, dim)
	for d := range values {
		values[d] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*d:]))
	}
	return Row{ID: id, Values: values}, nil
}

// EncodeCheckpoint serializes cp as a checkpoint record payload.
func EncodeCheckpoint(cp Checkpoint) []byte {
	p := make([]byte, 0, 1+24)
	p = append(p, recCheckpoint)
	p = binary.LittleEndian.AppendUint64(p, cp.Rows)
	p = binary.LittleEndian.AppendUint64(p, cp.Epoch)
	p = binary.LittleEndian.AppendUint64(p, cp.Fingerprint)
	return p
}

// DecodeCheckpoint parses a checkpoint record payload.
func DecodeCheckpoint(payload []byte) (Checkpoint, error) {
	if RecordType(payload) != recCheckpoint {
		return Checkpoint{}, fmt.Errorf("wal: not a checkpoint record")
	}
	if len(payload) != 1+24 {
		return Checkpoint{}, fmt.Errorf("wal: checkpoint record has %d bytes, want %d", len(payload), 1+24)
	}
	return Checkpoint{
		Rows:        binary.LittleEndian.Uint64(payload[1:]),
		Epoch:       binary.LittleEndian.Uint64(payload[9:]),
		Fingerprint: binary.LittleEndian.Uint64(payload[17:]),
	}, nil
}
