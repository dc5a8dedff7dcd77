//go:build !race

package extract_test

const raceEnabled = false
