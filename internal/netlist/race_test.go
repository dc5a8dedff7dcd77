//go:build race

package netlist_test

// raceEnabled reports whether the race detector instruments this build;
// allocation guards skip under it, since its instrumentation allocates on
// paths that otherwise do not.
const raceEnabled = true
