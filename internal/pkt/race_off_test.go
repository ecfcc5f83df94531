//go:build !race

package pkt

const raceEnabled = false
