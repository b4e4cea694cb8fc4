package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// e2eArgs builds the pinned golden scenario's argument list with extra
// flags prepended, so crash/recovery runs stay comparable to the committed
// goldens byte-for-byte.
func e2eArgs(tmp string, extra ...string) (args []string, timelinePath, spansPath string) {
	timelinePath = filepath.Join(tmp, "timeline.json")
	spansPath = filepath.Join(tmp, "spans.jsonl")
	args = append(extra,
		"-parallel", "1",
		"-seed", "3",
		"-horizon", "3s",
		"-timeline-out", timelinePath,
		"-spans-out", spansPath,
		"fig9", "fig10a")
	return args, timelinePath, spansPath
}

// TestE2ECrashRecovery is the CLI-level durability proof against the
// committed goldens: a run killed mid-flight by -crash-at exits non-zero
// after snapshotting every grid point; the recovery run over the same
// -state-dir re-verifies and produces artifacts byte-identical to the
// golden files of an uninterrupted run.
func TestE2ECrashRecovery(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")

	// Crash run: every grid point snapshots at t=1s and aborts.
	var stdout, stderr bytes.Buffer
	args, _, _ := e2eArgs(t.TempDir(), "-state-dir", stateDir, "-crash-at", "1s")
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("crash run exit = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("injected crash")) {
		t.Fatalf("crash run stderr does not name the injected crash:\n%s", stderr.String())
	}
	snaps, err := filepath.Glob(filepath.Join(stateDir, "run-*.kks"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("crash run left no per-run snapshots")
	}

	// Recovery run: same state dir, no -crash-at. Exit 0 and artifacts
	// byte-identical to the committed goldens (the recovery verify hook is
	// read-only, so a passing run proves replay determinism end to end).
	stdout.Reset()
	stderr.Reset()
	args, timelinePath, spansPath := e2eArgs(t.TempDir(), "-state-dir", stateDir)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("recovery run exit = %d, stderr:\n%s", code, stderr.String())
	}
	got := map[string][]byte{
		filepath.Join("testdata", "e2e_tables.golden.txt"):    stdout.Bytes(),
		filepath.Join("testdata", "e2e_timeline.golden.json"): readAll(t, timelinePath),
		filepath.Join("testdata", "e2e_spans.golden.jsonl"):   readAll(t, spansPath),
	}
	for golden, data := range got {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (generate goldens with TestE2EGolden -update first)", err)
		}
		if !bytes.Equal(want, data) {
			t.Errorf("recovery run diverged from %s\n%s", golden, firstDiff(want, data))
		}
	}
}

// TestCrashAtRequiresStateDir pins the flag validation.
func TestCrashAtRequiresStateDir(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-crash-at", "1s", "fig9"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !bytes.Contains(stderr.Bytes(), []byte("-crash-at requires -state-dir")) {
		t.Fatalf("stderr:\n%s", stderr.String())
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
