//go:build race

package dstore

// raceEnabled gates allocation pins: under the race detector sync.Pool drops
// a share of its puts, so a pooled hot path reallocates.
const raceEnabled = true
