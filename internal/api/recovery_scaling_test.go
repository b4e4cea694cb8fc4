package api

import (
	"runtime"
	"testing"
)

// recoveryMallocs recovers dir into a fresh server and returns the heap
// allocations the recovery made: persist.Open through Server.Recover and
// closing the manager.
func recoveryMallocs(t *testing.T, dir string, cmds int) uint64 {
	t.Helper()
	s := newRecoverServer(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recoverOnce(t, s, dir, cmds)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRecoveryAllocsFollowCommands guards the cost of a replayed tick
// against growing with history: recovering BenchmarkRecover's script at
// 4,800 commands allocates at most 1.5× as much per command as at 1,200.
// It counts allocations, not time, so machine load cannot flake it.
func TestRecoveryAllocsFollowCommands(t *testing.T) {
	if raceEnabled {
		t.Skip("journals 6,000 commands; too slow under -race")
	}
	perCmd := make(map[int]float64)
	for _, steps := range []int{1000, 4000} {
		dir := t.TempDir()
		journalRecoverScript(t, dir, steps)
		cmds := recoverCommands(steps)
		perCmd[cmds] = float64(recoveryMallocs(t, dir, cmds)) / float64(cmds)
	}
	if ratio := perCmd[4800] / perCmd[1200]; ratio > 1.5 {
		t.Fatalf("recovery allocates %.1f per command at 4,800 commands, %.1f at 1,200: %.2f×, want at most 1.5×",
			perCmd[4800], perCmd[1200], ratio)
	} else {
		t.Logf("allocations per command: %.1f at 1,200, %.1f at 4,800 (%.2f×)", perCmd[1200], perCmd[4800], ratio)
	}
}
