//go:build race

package netlint_test

// raceEnabled reports whether the race detector instruments this build;
// wall-clock share guards skip under it, since its instrumentation slows
// map- and pointer-heavy analysis far more than the arithmetic they are
// compared against.
const raceEnabled = true
