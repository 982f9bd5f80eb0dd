//go:build !race

package redist

const raceEnabled = false
