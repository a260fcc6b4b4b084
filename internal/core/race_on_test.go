//go:build race

package core

// raceEnabled: allocation budgets are asserted only without the detector.
const raceEnabled = true
