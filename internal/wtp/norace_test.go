//go:build !race

package wtp

const raceEnabled = false
