//go:build race

package minicc_test

// raceEnabled: allocation budgets are asserted only without the detector.
const raceEnabled = true
