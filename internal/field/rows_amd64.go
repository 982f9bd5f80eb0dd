package field

// useAVX2 selects the assembly row loops (rows_amd64.s). It is set once,
// from CPUID and XGETBV, and is not a setting: the parity tests clear it to
// run the portable loops on the same inputs and compare the bits.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the operating system
// saves the YMM registers across context switches.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the SSE and the upper AVX state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The assembly loops do the Go loops' work on slices of one length n
// (src n+1 samples long): four lanes at a time over the multiple-of-4
// prefix, then one lane at a time, with the same scalar multiplies and adds
// the Go loops compile to. Finishing the row in assembly, not handing the
// tail back to Go, measured ~12 % faster end to end on rows as short as a
// nest's.

//go:noescape
func interpRowAVX2(dst, src, wx, fx []float64)

//go:noescape
func advectRowAVX2(out, tops, src, wx, fx []float64, wy0, fy, decay float64)

//go:noescape
func addScaledAVX2(row, w []float64, a float64)

// interpRow is interpRowGo, run in assembly when the CPU has AVX2.
func interpRow(dst, src, wx, fx []float64) {
	if useAVX2 {
		n := len(dst)
		interpRowAVX2(dst, src[:n+1], wx[:n], fx[:n])
		return
	}
	interpRowGo(dst, src, wx, fx)
}

// advectRow is advectRowGo, run in assembly when the CPU has AVX2.
func advectRow(out, tops, src, wx, fx []float64, wy0, fy, decay float64) {
	if useAVX2 {
		n := len(out)
		advectRowAVX2(out, tops[:n], src[:n+1], wx[:n], fx[:n], wy0, fy, decay)
		return
	}
	advectRowGo(out, tops, src, wx, fx, wy0, fy, decay)
}

// addScaled is addScaledGo, run in assembly when the CPU has AVX2.
func addScaled(row, w []float64, a float64) {
	if useAVX2 {
		addScaledAVX2(row[:len(w)], w, a)
		return
	}
	addScaledGo(row, w, a)
}
