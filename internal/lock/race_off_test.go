//go:build !race

package lock

// raceEnabled reports whether the race detector is instrumenting this
// build.
const raceEnabled = false
