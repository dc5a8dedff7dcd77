//go:build !race

package netlist_test

const raceEnabled = false
