//go:build !race

package netlint_test

const raceEnabled = false
