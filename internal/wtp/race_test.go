//go:build race

package wtp

// raceEnabled reports a -race build, where sync.Pool drops a random share
// of the items put back, so pooled scratch cannot show zero allocations.
const raceEnabled = true
