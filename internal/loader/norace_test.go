//go:build !race

package loader

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
