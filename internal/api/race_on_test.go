//go:build race

package api

// raceEnabled mirrors the -race build flag so that the recovery-scaling
// guard, which journals thousands of commands, bows out under the race
// detector's ~15× slowdown. Its concurrency is covered by the stress tests.
const raceEnabled = true
