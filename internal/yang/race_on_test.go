//go:build race

package yang

// raceEnabled lets allocation-count tests skip themselves: the race
// detector's instrumentation allocates.
const raceEnabled = true
