//go:build !race

package dtmc

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
