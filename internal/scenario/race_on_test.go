//go:build race

package scenario

// raceEnabled: the paper suite's smoke pass is skipped under the detector
// (one goroutine runs a cluster, and the pass costs minutes there).
const raceEnabled = true
