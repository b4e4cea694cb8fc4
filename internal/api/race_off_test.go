//go:build !race

package api

// See race_on_test.go.
const raceEnabled = false
