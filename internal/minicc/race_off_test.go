//go:build !race

package minicc_test

const raceEnabled = false
