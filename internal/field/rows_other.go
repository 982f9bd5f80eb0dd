//go:build !amd64

package field

// useAVX2 is always false off amd64. The parity tests clear it as they do
// on amd64, where it selects the assembly row loops.
var useAVX2 = false

func interpRow(dst, src, wx, fx []float64) { interpRowGo(dst, src, wx, fx) }

func advectRow(out, tops, src, wx, fx []float64, wy0, fy, decay float64) {
	advectRowGo(out, tops, src, wx, fx, wy0, fy, decay)
}

func addScaled(row, w []float64, a float64) { addScaledGo(row, w, a) }
