//go:build !race

package svm

// raceEnabled reports a build with the race detector, which changes
// allocation counts.
const raceEnabled = false
