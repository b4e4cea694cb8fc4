package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kubeknots/internal/api"
	"kubeknots/internal/k8s"
	"kubeknots/internal/persist"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
)

// buildStateDir drives a persisted in-process apiserver through a small
// scenario and returns its state dir: a snapshot of the first 4 commands
// (snapshot-every 2) plus a WAL tail holding the 5th — exactly what
// `knotsctl state` operates on.
func buildStateDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	boot := persist.Bootstrap{Kind: "apiserver", Seed: 1, Nodes: 2, Scheduler: "pp"}
	orch, _, err := persist.Rebuild(boot, &scheduler.PP{})
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewServer(orch)
	mgr, err := persist.Open(dir, boot, persist.WithSnapshotEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recover(mgr); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := api.NewClient(ts.URL)
	for _, n := range []string{"s1", "s2", "s3"} {
		if _, err := c.SubmitManifest(k8s.Manifest{
			Name:     n,
			Workload: k8s.WorkloadRef{Kind: "rodinia", Name: "pathfinder"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []sim.Time{5 * sim.Second, sim.Second} {
		if _, _, _, err := c.Advance(d); err != nil {
			t.Fatal(err)
		}
	}
	// Close without a final snapshot: leave the post-snapshot commands in
	// the WAL so inspect/verify/compact all have a tail to work with.
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func runState(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"state"}, args...), &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func TestStateInspectVerifyCompact(t *testing.T) {
	dir := buildStateDir(t)

	out, errOut, code := runState(t, "inspect", dir)
	if code != 0 {
		t.Fatalf("inspect exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "kind=apiserver") || !strings.Contains(out, "scheduler=pp") {
		t.Fatalf("inspect output:\n%s", out)
	}
	if !strings.Contains(out, "wal:") || !strings.Contains(out, "(clean)") {
		t.Fatalf("inspect did not report the WAL:\n%s", out)
	}

	out, errOut, code = runState(t, "verify", dir)
	if code != 0 {
		t.Fatalf("verify exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "verified: 4 snapshot commands byte-identical, 1 wal records apply") {
		t.Fatalf("verify output:\n%s", out)
	}

	out, errOut, code = runState(t, "compact", dir)
	if code != 0 {
		t.Fatalf("compact exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "compacted: snapshot now holds 5 commands (folded 1 wal records)") {
		t.Fatalf("compact output:\n%s", out)
	}

	// After compaction the WAL is empty and verify still passes over the
	// folded snapshot.
	out, _, code = runState(t, "inspect", dir)
	if code != 0 || !strings.Contains(out, "wal: 0 records") || !strings.Contains(out, "commands=5") {
		t.Fatalf("post-compact inspect (exit %d):\n%s", code, out)
	}
	if out, errOut, code = runState(t, "verify", dir); code != 0 {
		t.Fatalf("post-compact verify exit %d: %s%s", code, out, errOut)
	}
}

func TestStateVerifyDetectsTampering(t *testing.T) {
	dir := buildStateDir(t)
	path := filepath.Join(dir, "snapshot.kks")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// CRC damage surfaces at load time for both verbs; inspect degrades to
	// a CORRUPT line instead of failing.
	if _, errOut, code := runState(t, "verify", dir); code == 0 || !strings.Contains(errOut, "CRC mismatch") {
		t.Fatalf("verify over corrupt snapshot: exit %d, stderr %q", code, errOut)
	}
	out, _, code := runState(t, "inspect", dir)
	if code != 0 || !strings.Contains(out, "CORRUPT") {
		t.Fatalf("inspect over corrupt snapshot (exit %d):\n%s", code, out)
	}
}

func TestStateUsageAndErrors(t *testing.T) {
	if _, _, code := runState(t, "inspect"); code == 0 {
		t.Fatal("missing dir accepted")
	}
	if _, _, code := runState(t, "bogus", t.TempDir()); code == 0 {
		t.Fatal("unknown verb accepted")
	}
	if _, _, code := runState(t, "inspect", filepath.Join(t.TempDir(), "nope")); code == 0 {
		t.Fatal("nonexistent dir accepted")
	}
	if out, _, code := runState(t, "inspect", t.TempDir()); code != 0 || !strings.Contains(out, "empty state dir") {
		t.Fatalf("empty dir (exit %d): %s", code, out)
	}
	if _, errOut, code := runState(t, "verify", t.TempDir()); code == 0 || !strings.Contains(errOut, "no snapshot") {
		t.Fatalf("verify on empty dir: exit %d, %q", code, errOut)
	}
}

// dirFiles fingerprints a state dir: every file's name and bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

func assertUnchanged(t *testing.T, what, dir string, before map[string]string) {
	t.Helper()
	after := dirFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("%s changed the dir's files: %d before, %d after", what, len(before), len(after))
	}
	for name, data := range before {
		if after[name] != data {
			t.Fatalf("%s rewrote %s", what, name)
		}
	}
}

// TestStateVerifyWritesNothing: verify is read-only, also over a torn WAL
// tail, which recovery drops but only a journaling manager truncates.
func TestStateVerifyWritesNothing(t *testing.T) {
	dir := buildStateDir(t)
	before := dirFiles(t, dir)
	if out, errOut, code := runState(t, "verify", dir); code != 0 {
		t.Fatalf("verify exit %d: %s%s", code, out, errOut)
	}
	assertUnchanged(t, "verify", dir, before)

	walPath := filepath.Join(dir, "wal.kkw")
	wal := []byte(before["wal.kkw"])
	if err := os.WriteFile(walPath, wal[:len(wal)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	before = dirFiles(t, dir)
	out, errOut, code := runState(t, "verify", dir)
	if code != 0 || !strings.Contains(out, "0 wal records apply (torn tail dropped)") {
		t.Fatalf("verify over a torn tail (exit %d): %s%s", code, out, errOut)
	}
	assertUnchanged(t, "verify over a torn tail", dir, before)
}

// TestStateRefusesWALGap: a WAL whose only record is seq 10 where 5 is due
// has lost acknowledged commands. The daemon refuses to recover from it,
// and so do verify and compact.
func TestStateRefusesWALGap(t *testing.T) {
	dir := buildStateDir(t)
	walPath := filepath.Join(dir, "wal.kkw")
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// One frame after the 8-byte magic: [len u32][seq u64][payload][crc u32].
	const off = 8
	n := int(binary.LittleEndian.Uint32(wal[off:]))
	if seq := binary.LittleEndian.Uint64(wal[off+4:]); seq != 5 || len(wal) != off+16+n {
		t.Fatalf("want one WAL record, seq 5; got seq %d in %d bytes", seq, len(wal))
	}
	binary.LittleEndian.PutUint64(wal[off+4:], 10)
	binary.LittleEndian.PutUint32(wal[off+12+n:], crc32.ChecksumIEEE(wal[off+4:off+12+n]))
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	for _, verb := range []string{"verify", "compact"} {
		out, errOut, code := runState(t, verb, dir)
		if code == 0 || !strings.Contains(errOut, "WAL gap") || !strings.Contains(errOut, "record seq 10, want 5") {
			t.Fatalf("%s over a WAL gap: exit %d, stdout %q, stderr %q", verb, code, out, errOut)
		}
		assertUnchanged(t, verb+" over a WAL gap", dir, before)
	}
}

// TestStateCompactRefusesDivergentSnapshot: a snapshot whose State does not
// match what its commands replay to fails verification, and compact must
// not launder it into a fresh snapshot that would verify.
func TestStateCompactRefusesDivergentSnapshot(t *testing.T) {
	dir := buildStateDir(t)
	path := filepath.Join(dir, "snapshot.kks")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	snap.State.ClockMS++
	if data, err = persist.EncodeSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	for _, verb := range []string{"verify", "compact"} {
		out, errOut, code := runState(t, verb, dir)
		if code == 0 || !strings.Contains(errOut, "clock diverged") {
			t.Fatalf("%s over a divergent snapshot: exit %d, stdout %q, stderr %q", verb, code, out, errOut)
		}
		assertUnchanged(t, verb+" over a divergent snapshot", dir, before)
	}
}
