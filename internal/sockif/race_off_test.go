//go:build !race

package sockif

const raceEnabled = false
