//go:build !race

package iwarp

const raceEnabled = false
