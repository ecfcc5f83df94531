//go:build race

package catalog

// raceEnabled lets allocation-count tests skip themselves: the race
// detector's instrumentation allocates.
const raceEnabled = true
