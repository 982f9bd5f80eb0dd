//go:build race

package topology

// raceEnabled reports whether the race detector is compiled in; the
// zero-allocation assertions skip under it (instrumentation perturbs
// allocation accounting).
const raceEnabled = true
