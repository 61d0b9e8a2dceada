//go:build !race

package dstore

const raceEnabled = false
