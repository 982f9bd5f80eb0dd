package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"nestdiff/internal/geom"
)

// Checkpoint envelope v2: a pipeline checkpoint is a *chain* of blobs —
// one full base followed by zero or more deltas — each framed by a fixed
// header:
//
//	magic "NDCP" (4) | envelope version = 2 (1) | payload length (8, LE) |
//	CRC-32C of payload (4) | flags (1) | seq (4, LE) | link (4, LE)
//
// flags bit 0 marks a delta blob. seq is the blob's position in its chain
// (0 for the base, k for the k-th delta) and link is the payload CRC of the
// predecessor blob (0 for the base), so a replay can prove every delta was
// derived from exactly the blob before it — a delta appended after a
// concurrent rewrite, or an out-of-order copy, fails the link check and the
// restore falls back to the longest valid prefix.
//
// The payload is a sequence of self-checked records:
//
//	kind (1) | payload length (4, LE) | payload | CRC-32C of kind+length+payload (4)
//
// and a blob has one of two shapes:
//
//	base:  recMeta  recModelRaw  recNestFull*   (nests in ascending ID order)
//	delta: recMeta  recReplay
//
// A base carries the whole state: gob metadata plus every field as raw
// little-endian float64 samples. A delta carries no field payload at all —
// only a target step and per-field CRCs. Advected fields change every
// mantissa every step, so a field diff costs nearly as much as a full
// record; the pipeline is deterministic, so re-executing the delta's steps
// from the base reproduces the fields bit-identically, and the CRCs prove
// it did.
const (
	ckptEnvelopeV2  = 2
	ckptV2HeaderLen = 4 + 1 + 8 + 4 + 1 + 4 + 4

	ckptFlagDelta = 1 << 0
)

// Record kinds of the v2 payload. Kinds 3, 5 and 6 were recModelXOR,
// recNestXOR and recNestRemove, the field-diff delta records measured 1.4x
// slower and 1.06x smaller than a full base and retired; their numbers stay
// reserved, and a reader rejects them like any unknown kind.
const (
	recMeta     = 1 // gob-encoded ckptMetaV2 (one gob stream per chain)
	recModelRaw = 2 // parent model field: nx, ny, raw float64 samples
	recNestFull = 4 // one nest, complete: geometry + nx, ny, raw samples
	recReplay   = 7 // replay directive: target step, model CRC, per-nest CRCs
)

const recHeaderLen = 1 + 4 // kind + payload length

// nestFullPrefix is the fixed part of a nest record ahead of its field:
// id, region, steps, flags, procs. The flags byte has bit 0 set for a
// distributed nest; the restore reads the mode from the metadata instead.
const (
	nestFullPrefix      = 4 + 16 + 4 + 1 + 16
	nestFlagDistributed = 1
)

// ErrDeltaChainBroken reports a v2 checkpoint whose full base blob is
// intact but whose delta tail is torn, corrupt or discontinuous. The
// checkpoint is still restorable: RestorePipeline replays the longest
// valid prefix and the run re-executes the lost steps. Callers test for it
// with errors.Is.
var ErrDeltaChainBroken = errors.New("core: checkpoint delta chain broken")

// blobHeader is the parsed fixed header of one v2 blob.
type blobHeader struct {
	payloadLen uint64
	crc        uint32
	delta      bool
	seq        uint32
	link       uint32
}

// putBlobHeader writes the v2 header into b (len >= ckptV2HeaderLen).
func putBlobHeader(b []byte, h blobHeader) {
	copy(b[:4], ckptMagic[:])
	b[4] = ckptEnvelopeV2
	binary.LittleEndian.PutUint64(b[5:13], h.payloadLen)
	binary.LittleEndian.PutUint32(b[13:17], h.crc)
	var flags byte
	if h.delta {
		flags |= ckptFlagDelta
	}
	b[17] = flags
	binary.LittleEndian.PutUint32(b[18:22], h.seq)
	binary.LittleEndian.PutUint32(b[22:26], h.link)
}

// parseBlob validates one v2 blob at the front of data: header shape,
// payload length against the bytes actually present, and the payload CRC.
// It returns the parsed header, the payload, and the blob's total size.
func parseBlob(data []byte) (blobHeader, []byte, int, error) {
	var h blobHeader
	if len(data) < ckptV2HeaderLen {
		return h, nil, 0, fmt.Errorf("core: load pipeline state: truncated checkpoint header (%d bytes)", len(data))
	}
	if string(data[:4]) != string(ckptMagic[:]) {
		return h, nil, 0, fmt.Errorf("core: load pipeline state: bad magic %q (not a nestdiff pipeline checkpoint)", data[:4])
	}
	if data[4] != ckptEnvelopeV2 {
		return h, nil, 0, fmt.Errorf("core: load pipeline state: unsupported checkpoint envelope version %d", data[4])
	}
	h.payloadLen = binary.LittleEndian.Uint64(data[5:13])
	if h.payloadLen == 0 || h.payloadLen > ckptMaxPayload {
		return h, nil, 0, fmt.Errorf("core: load pipeline state: implausible payload length %d (corrupt header)", h.payloadLen)
	}
	if uint64(len(data)-ckptV2HeaderLen) < h.payloadLen {
		return h, nil, 0, fmt.Errorf("core: load pipeline state: torn checkpoint (%d payload bytes, header promises %d)",
			len(data)-ckptV2HeaderLen, h.payloadLen)
	}
	h.crc = binary.LittleEndian.Uint32(data[13:17])
	h.delta = data[17]&ckptFlagDelta != 0
	h.seq = binary.LittleEndian.Uint32(data[18:22])
	h.link = binary.LittleEndian.Uint32(data[22:26])
	payload := data[ckptV2HeaderLen : ckptV2HeaderLen+int(h.payloadLen)]
	if crc32.Checksum(payload, ckptCRC) != h.crc {
		return h, nil, 0, fmt.Errorf("core: load pipeline state: checksum mismatch (corrupt checkpoint)")
	}
	return h, payload, ckptV2HeaderLen + int(h.payloadLen), nil
}

// beginRecord appends a record header placeholder for the given kind and
// returns the new buffer plus the offset of the record's start.
func beginRecord(b []byte, kind byte) ([]byte, int) {
	start := len(b)
	b = append(b, kind, 0, 0, 0, 0)
	return b, start
}

// endRecord patches the record's payload length and appends its CRC-32C
// (computed over kind, length and payload).
func endRecord(b []byte, start int) []byte {
	plen := len(b) - start - recHeaderLen
	binary.LittleEndian.PutUint32(b[start+1:start+5], uint32(plen))
	sum := crc32.Checksum(b[start:], ckptCRC)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	return append(b, crc[:]...)
}

// record is one parsed v2 payload record.
type record struct {
	kind    byte
	payload []byte
}

// splitRecords validates the record framing and per-record CRCs of one
// blob payload, appending the parsed records to recs (reused across
// blobs). The payload must be consumed exactly.
func splitRecords(payload []byte, recs []record) ([]record, error) {
	off := 0
	for off < len(payload) {
		if len(payload)-off < recHeaderLen+4 {
			return nil, fmt.Errorf("core: load pipeline state: truncated record header")
		}
		kind := payload[off]
		plen := int(binary.LittleEndian.Uint32(payload[off+1 : off+5]))
		end := off + recHeaderLen + plen
		if plen < 0 || end+4 > len(payload) {
			return nil, fmt.Errorf("core: load pipeline state: record overruns payload")
		}
		sum := crc32.Checksum(payload[off:end], ckptCRC)
		if sum != binary.LittleEndian.Uint32(payload[end:end+4]) {
			return nil, fmt.Errorf("core: load pipeline state: record checksum mismatch (corrupt checkpoint)")
		}
		recs = append(recs, record{kind: kind, payload: payload[off+recHeaderLen : end]})
		off = end + 4
	}
	return recs, nil
}

// appendU32 appends v little-endian.
func appendU32(b []byte, v uint32) []byte {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	return append(b, w[:]...)
}

// appendRect appends the rectangle's four corners as little-endian u32
// (regions and processor sub-rectangles are always non-negative).
func appendRect(b []byte, r geom.Rect) []byte {
	b = appendU32(b, uint32(r.X0))
	b = appendU32(b, uint32(r.Y0))
	b = appendU32(b, uint32(r.X1))
	return appendU32(b, uint32(r.Y1))
}

// decodeRect reads a rectangle written by appendRect from b (len >= 16).
func decodeRect(b []byte) geom.Rect {
	return geom.Rect{
		X0: int(binary.LittleEndian.Uint32(b[0:4])),
		Y0: int(binary.LittleEndian.Uint32(b[4:8])),
		X1: int(binary.LittleEndian.Uint32(b[8:12])),
		Y1: int(binary.LittleEndian.Uint32(b[12:16])),
	}
}

// sampleBytes views data's memory as its little-endian encoding, without
// a copy (writes through the view write the samples). ok is false on a
// big-endian host, where callers take the per-sample path.
func sampleBytes(data []float64) (b []byte, ok bool) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 8*len(data)), true
}

// appendSamplesLE and getSamplesLE are the per-sample codec: the fallback
// on a big-endian host and the oracle for sampleBytes on a little-endian
// one.
func appendSamplesLE(b []byte, data []float64) []byte {
	for _, v := range data {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func getSamplesLE(out []float64, b []byte) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// appendRawField appends the samples as little-endian float64 words: one
// copy of the field's memory on a little-endian host.
func appendRawField(b []byte, data []float64) []byte {
	if v, ok := sampleBytes(data); ok {
		return append(b, v...)
	}
	return appendSamplesLE(b, data)
}

// ckptMaxFieldSamples bounds the float64 array a (possibly hostile) field
// record can make a restore allocate.
const ckptMaxFieldSamples = 1 << 24

// appendField appends a field as its dimensions followed by its raw
// samples — the tail of both the model and the nest record.
func appendField(b []byte, nx, ny int, data []float64) []byte {
	b = appendU32(b, uint32(nx))
	b = appendU32(b, uint32(ny))
	return appendRawField(b, data)
}

// parseField reads what appendField wrote from b, which the field must
// fill exactly. Each dimension is bounded on its own before the two are
// multiplied, so no header value can overflow the sample count. With
// decode false the samples are length-checked but not converted, and data
// is nil.
func parseField(b []byte, decode bool) (nx, ny int, data []float64, err error) {
	if len(b) < 8 {
		return 0, 0, nil, fmt.Errorf("core: load pipeline state: short field record")
	}
	x, y := binary.LittleEndian.Uint32(b[0:4]), binary.LittleEndian.Uint32(b[4:8])
	if x == 0 || y == 0 || x > ckptMaxFieldSamples || y > ckptMaxFieldSamples ||
		uint64(x)*uint64(y) > ckptMaxFieldSamples {
		return 0, 0, nil, fmt.Errorf("core: load pipeline state: implausible field domain %dx%d", x, y)
	}
	nx, ny = int(x), int(y)
	if len(b) != 8+8*nx*ny {
		return 0, 0, nil, fmt.Errorf("core: load pipeline state: field record has %d sample bytes for %dx%d", len(b)-8, nx, ny)
	}
	if decode {
		data = make([]float64, nx*ny)
		decodeRawField(data, b[8:])
	}
	return nx, ny, data, nil
}

// fieldCRC is the CRC-32C of a field's raw little-endian encoding — the
// same bytes appendRawField would emit — taken straight over the samples'
// memory on a little-endian host, so a cut copies nothing.
func fieldCRC(data []float64) uint32 {
	if v, ok := sampleBytes(data); ok {
		return crc32.Checksum(v, ckptCRC)
	}
	return crc32.Checksum(appendSamplesLE(nil, data), ckptCRC)
}

// decodeRawField reads little-endian float64 words into out (len(b) must
// be exactly 8*len(out); callers check). b may sit at any byte offset.
func decodeRawField(out []float64, b []byte) {
	if v, ok := sampleBytes(out); ok {
		copy(v, b)
		return
	}
	getSamplesLE(out, b)
}

// appendUvarint appends v in unsigned varint encoding.
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// byteFeeder is the reader behind the chain-scoped gob decoder: the replay
// loop points data at each blob's metadata payload in turn. It implements
// io.ByteReader so gob does not wrap it in a bufio.Reader, which could
// read ahead past the current record.
type byteFeeder struct{ data []byte }

func (f *byteFeeder) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

func (f *byteFeeder) ReadByte() (byte, error) {
	if len(f.data) == 0 {
		return 0, io.EOF
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b, nil
}
