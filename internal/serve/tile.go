// Package serve is the read-path serving tier of the nestdiff runtime:
// copy-on-write field snapshots published by running jobs at step
// boundaries, a float32-quantized tile encoder with an LRU tile cache,
// and a Server-Sent-Events streamer over the internal/obs tracer ring.
// It turns the daemon from a batch scheduler into a live weather
// service: readers see immutable step-boundary state and never touch —
// or slow down — the simulation's hot stepping loop.
package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
)

// TileSize is the fixed tile geometry: fields are cut into TileSize ×
// TileSize cell tiles (ragged at the domain's east/south edges). One
// tile is the unit of encoding, caching and eviction.
const TileSize = 64

// tileMagic brands one encoded tile blob ("NDT1": nestdiff tile v1).
const tileMagic = 0x4e445431

// tileHeaderLen is the fixed tile blob header: magic (4) + width (2) +
// height (2) + min (8) + range (8).
const tileHeaderLen = 4 + 2 + 2 + 8 + 8

// MaxRelTileError is the documented quantization bound: for every cell,
// |decoded − original| ≤ MaxRelTileError × (tileMax − tileMin). The
// encoder stores each sample as float32((v−min)/range), so the absolute
// error is at most range × 2⁻²⁴ ≈ 6.0e-8 × range — comfortably inside
// this bound. A constant tile (range 0) round-trips exactly.
const MaxRelTileError = 1e-6

// TileGrid reports how many tiles cover an nx × ny field in each
// dimension.
func TileGrid(nx, ny int) (tx, ty int) {
	return (nx + TileSize - 1) / TileSize, (ny + TileSize - 1) / TileSize
}

// TileRect returns tile (tx, ty)'s cell rectangle within an nx × ny
// field, clipped to the domain (edge tiles are ragged).
func TileRect(nx, ny, tx, ty int) geom.Rect {
	r := geom.NewRect(tx*TileSize, ty*TileSize, TileSize, TileSize)
	return r.Intersect(geom.NewRect(0, 0, nx, ny))
}

// EncodeTile quantizes one tile of f into a compact binary blob: a
// per-tile (min, range) float64 header followed by width×height float32
// samples normalized to [0, 1], little-endian throughout (gotetra-style
// float32 grid IO). The rect must be a non-empty sub-rectangle of f's
// bounds.
func EncodeTile(f *field.Field, r geom.Rect) []byte {
	w, h := r.Width(), r.Height()
	lo, hi := math.Inf(1), math.Inf(-1)
	for y := r.Y0; y < r.Y1; y++ {
		row := f.Data[y*f.NX+r.X0 : y*f.NX+r.X1]
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	rng := hi - lo
	blob := make([]byte, tileHeaderLen+4*w*h)
	binary.LittleEndian.PutUint32(blob[0:], tileMagic)
	binary.LittleEndian.PutUint16(blob[4:], uint16(w))
	binary.LittleEndian.PutUint16(blob[6:], uint16(h))
	binary.LittleEndian.PutUint64(blob[8:], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(blob[16:], math.Float64bits(rng))
	off := tileHeaderLen
	inv := 0.0
	if rng > 0 {
		inv = 1 / rng
	}
	for y := r.Y0; y < r.Y1; y++ {
		row := f.Data[y*f.NX+r.X0 : y*f.NX+r.X1]
		for _, v := range row {
			q := float32((v - lo) * inv)
			binary.LittleEndian.PutUint32(blob[off:], math.Float32bits(q))
			off += 4
		}
	}
	return blob
}

// DecodeTile reverses EncodeTile: width, height and the dequantized
// samples in row-major order.
func DecodeTile(blob []byte) (w, h int, data []float64, err error) {
	if len(blob) < tileHeaderLen {
		return 0, 0, nil, fmt.Errorf("serve: tile blob truncated (%d bytes)", len(blob))
	}
	if binary.LittleEndian.Uint32(blob[0:]) != tileMagic {
		return 0, 0, nil, fmt.Errorf("serve: bad tile magic")
	}
	w = int(binary.LittleEndian.Uint16(blob[4:]))
	h = int(binary.LittleEndian.Uint16(blob[6:]))
	lo := math.Float64frombits(binary.LittleEndian.Uint64(blob[8:]))
	rng := math.Float64frombits(binary.LittleEndian.Uint64(blob[16:]))
	if want := tileHeaderLen + 4*w*h; len(blob) != want {
		return 0, 0, nil, fmt.Errorf("serve: tile blob is %d bytes, want %d for %dx%d", len(blob), want, w, h)
	}
	data = make([]float64, w*h)
	for i := range data {
		q := math.Float32frombits(binary.LittleEndian.Uint32(blob[tileHeaderLen+4*i:]))
		data[i] = lo + float64(q)*rng
	}
	return w, h, data, nil
}
