//go:build !race

package pda

const raceEnabled = false
