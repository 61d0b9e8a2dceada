//go:build !race

package rudp

const raceEnabled = false
