//go:build !race

package sta

// RaceEnabled reports whether the race detector is compiled in. Allocation
// assertions (testing.AllocsPerRun) are skipped under -race: the detector
// instruments allocations and the counts stop meaning anything. Declared in
// the package itself (test builds only) so its internal and external tests
// share it.
const RaceEnabled = false
