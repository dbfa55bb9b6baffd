//go:build !race

package mpisim

const raceEnabled = false
