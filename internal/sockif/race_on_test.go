//go:build race

package sockif

// raceEnabled skips allocation gates under the race detector, whose
// sync.Pool drops a share of Puts at random, so pooled paths allocate.
const raceEnabled = true
