//go:build race

package core

// raceEnabled lets allocation-count tests skip themselves: the race
// detector's instrumentation allocates.
const raceEnabled = true
