//go:build race

package iwarp

// raceEnabled skips allocation gates under the race detector, whose
// sync.Pool drops a share of Puts at random, so pooled paths allocate.
const raceEnabled = true
