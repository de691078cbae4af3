//go:build race

package invidx

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a quarter of what it is given, so pooled score tables are rebuilt
// and allocation counts mean nothing.
const raceEnabled = true
