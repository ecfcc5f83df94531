//go:build !race

package yang

const raceEnabled = false
