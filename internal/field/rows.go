package field

// The row loops the step kernels spend their time in, written once in
// portable Go. On amd64 with AVX2 (rows_amd64.go) the wrappers interpRow,
// advectRow and addScaled hand the whole row to assembly that does the same
// multiplies and adds in the same order, never fused: four lanes at a time
// over the multiple-of-4 prefix, one lane at a time over the rest. On every
// other GOARCH (rows_other.go), and on an amd64 CPU without AVX2, these
// loops run the row. Either way every sample gets the bits these loops give
// when the compiler does not fuse a multiply into an add, as at the default
// GOAMD64=v1.

// interpRowGo sets dst[i] = src[i]·wx[i] + src[i+1]·fx[i]: one source
// row's horizontal interpolation at len(dst) consecutive departure columns.
// src holds at least len(dst)+1 samples. The left sample is carried over
// from the previous column, so every slice indexed by i has length len(dst)
// and needs no bounds check.
func interpRowGo(dst, src, wx, fx []float64) {
	l, rs := src[0], src[1:][:len(dst)]
	wx = wx[:len(dst)]
	for i, f := range fx[:len(dst)] {
		r := rs[i]
		dst[i] = l*wx[i] + r*f
		l = r
	}
}

// advectRowGo is AdvectDecay's steady row: it interpolates the bottom
// source row src as interpRowGo does, blends it with the carried top row,
// out[i] = (tops[i]·wy0 + bot·fy)·decay, and leaves the bottom row in tops
// for the next destination row.
func advectRowGo(out, tops, src, wx, fx []float64, wy0, fy, decay float64) {
	l, rs := src[0], src[1:][:len(out)]
	tops, wx = tops[:len(out)], wx[:len(out)]
	for i, f := range fx[:len(out)] {
		r := rs[i]
		bot := l*wx[i] + r*f
		out[i] = (tops[i]*wy0 + bot*fy) * decay
		tops[i] = bot
		l = r
	}
}

// addScaledGo accumulates row[i] += a·w[i] over len(w) samples: one
// window row of a separable Gaussian deposit.
func addScaledGo(row, w []float64, a float64) {
	row = row[:len(w)]
	for i, wv := range w {
		row[i] += a * wv
	}
}
