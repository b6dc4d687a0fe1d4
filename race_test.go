//go:build race

package powerperf

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
