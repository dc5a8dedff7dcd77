//go:build race

package server

// raceEnabled reports whether the race detector instruments this build;
// its instrumentation slows parsing, lint and rewriting about fivefold, so
// wall-clock deadlines in tests stretch with it.
const raceEnabled = true
