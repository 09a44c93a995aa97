//go:build race

package serv_test

// raceEnabled reports whether the race detector is instrumenting this
// build. sync.Pool randomly drops 25% of Puts under the race detector
// (see sync/pool.go), so exact allocation accounting across several
// pool round-trips is only meaningful without -race.
const raceEnabled = true
