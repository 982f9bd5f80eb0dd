package core

import (
	"bytes"
	"hash/crc32"
	"math"
	"testing"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRawFieldRoundTrip: the raw codec must preserve every bit pattern,
// including NaN payloads, infinities, negative zero and denormals.
func TestRawFieldRoundTrip(t *testing.T) {
	in := []float64{
		0, math.Copysign(0, -1), 1.5, -2.75e-308, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000001), 5e-324,
	}
	enc := appendRawField(nil, in)
	if len(enc) != 8*len(in) {
		t.Fatalf("raw encoding is %d bytes for %d samples", len(enc), len(in))
	}
	out := make([]float64, len(in))
	decodeRawField(out, enc)
	if !bitsEqual(in, out) {
		t.Fatalf("raw round trip diverged:\nin  %v\nout %v", in, out)
	}
	if got, want := fieldCRC(in), crcOfBytes(enc); got != want {
		t.Fatalf("fieldCRC = %#x, want CRC of the raw encoding %#x", got, want)
	}
}

// TestRawFieldViewMatchesPerSampleEncoding: on this host the codec works
// on a byte view of the samples' memory. The view must be exactly the
// per-sample little-endian encoding (the big-endian fallback, which is
// also the oracle) for every bit pattern and for lengths around the old
// 4 KB staging chunk, fieldCRC must be the CRC of those bytes, and a
// decode must round-trip from a source at an odd byte offset.
func TestRawFieldViewMatchesPerSampleEncoding(t *testing.T) {
	patterns := []float64{
		// ±0, ±Inf, quiet, signalling and negative NaN payloads
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
		// subnormals
		5e-324, -5e-324, math.Float64frombits(0x000fffffffffffff), math.SmallestNonzeroFloat64 * 3,
		// normals
		1, -2.75e-308, math.MaxFloat64, math.Pi,
	}
	for _, n := range []int{0, 1, 511, 512, 513, 4097} {
		data := make([]float64, n)
		for i := range data {
			data[i] = patterns[(i*7)%len(patterns)]
		}
		oracle := appendSamplesLE(nil, data)
		if len(oracle) != 8*n {
			t.Fatalf("n=%d: per-sample encoding is %d bytes", n, len(oracle))
		}
		view, ok := sampleBytes(data)
		if !ok {
			t.Skip("big-endian host: the codec takes the per-sample path")
		}
		if !bytes.Equal(view, oracle) {
			t.Fatalf("n=%d: byte view differs from the per-sample encoding", n)
		}
		if enc := appendRawField([]byte{0xAA}, data); enc[0] != 0xAA || !bytes.Equal(enc[1:], oracle) {
			t.Fatalf("n=%d: appendRawField differs from the per-sample encoding", n)
		}
		if got, want := fieldCRC(data), crcOfBytes(oracle); got != want {
			t.Fatalf("n=%d: fieldCRC = %#x, want CRC of the per-sample bytes %#x", n, got, want)
		}
		// Decode from an odd offset inside a larger buffer, through the
		// view and through the fallback.
		src := append(append([]byte{1, 2, 3}, oracle...), 4, 5)[3 : 3+8*n]
		for name, decode := range map[string]func([]float64, []byte){
			"view": decodeRawField, "per-sample": getSamplesLE,
		} {
			out := make([]float64, n)
			decode(out, src)
			if !bitsEqual(out, data) {
				t.Fatalf("n=%d: %s decode from an odd offset diverged", n, name)
			}
		}
	}
}

func crcOfBytes(b []byte) uint32 {
	return crc32.Checksum(b, ckptCRC)
}

// TestParseFieldBoundsDimensionsBeforeMultiplying: parseField must reject
// dimensions whose product wraps around to a plausible sample count, and
// must agree with itself on what it accepts whether or not it decodes.
func TestParseFieldBoundsDimensionsBeforeMultiplying(t *testing.T) {
	valid := appendField(nil, 3, 2, []float64{1, 2, 3, 4, 5, 6})
	for _, decode := range []bool{false, true} {
		nx, ny, data, err := parseField(valid, decode)
		if err != nil || nx != 3 || ny != 2 || (data != nil) != decode {
			t.Fatalf("decode=%v: parseField = %dx%d, %v, %v", decode, nx, ny, data, err)
		}
	}
	rejects := map[string][]byte{
		"short":            valid[:7],
		"zero dimension":   appendField(nil, 0, 6, nil),
		"one sample short": valid[:len(valid)-8],
		"trailing byte":    append(append([]byte(nil), valid...), 0),
		// 8*nx*ny == 16 (mod 2^64): two samples of payload pass a length
		// check made after the multiplication.
		"product wraps to 2": overflowWitnessField(),
	}
	for name, b := range rejects {
		for _, decode := range []bool{false, true} {
			if _, _, _, err := parseField(b, decode); err == nil {
				t.Fatalf("%s (decode=%v) accepted", name, decode)
			}
		}
	}
}

// overflowWitnessField is a field payload whose dimensions multiply to
// -9223372036854775806 as int64 — so 8*nx*ny wraps to 16 — followed by
// exactly 16 sample bytes.
func overflowWitnessField() []byte {
	b := appendU32(nil, 2147549185)
	b = appendU32(b, 4294836226)
	return append(b, make([]byte, 16)...)
}
