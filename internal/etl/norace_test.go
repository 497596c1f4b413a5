//go:build !race

package etl_test

// raceEnabled reports a build with the race detector, which changes
// allocation counts.
const raceEnabled = false
