//go:build !race

package serv_test

// raceEnabled reports whether the race detector is instrumenting this
// build.
const raceEnabled = false
