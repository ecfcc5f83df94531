//go:build !race

package ofswitch

const raceEnabled = false
