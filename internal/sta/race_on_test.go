//go:build race

package sta

// RaceEnabled reports whether the race detector is compiled in. See
// race_off_test.go.
const RaceEnabled = true
