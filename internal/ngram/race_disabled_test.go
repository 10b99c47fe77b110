//go:build !race

package ngram

// raceEnabled reports whether the test binary runs under the race
// detector, which drops sync.Pool items at random on purpose.
const raceEnabled = false
