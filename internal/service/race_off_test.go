//go:build !race

package service

// raceEnabled reports whether the race detector is compiled in. Allocation
// assertions (testing.AllocsPerRun) are skipped under -race: the detector
// instruments allocations, and sync.Pool drops a share of its items.
const raceEnabled = false
