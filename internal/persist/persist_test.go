package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
)

// testBoot is the control plane every test replays into: small cluster,
// PP scheduler, harvest controller on — exercising the full state surface
// (pods, series, QoS, harvest counters).
func testBoot() Bootstrap {
	return Bootstrap{
		Kind:        "apiserver",
		Seed:        7,
		Nodes:       2,
		Scheduler:   "pp",
		HarvestSpec: "on,watermark=0.85",
	}
}

func manifestJSON(name, kind, app string) []byte {
	return []byte(fmt.Sprintf(`{"name":%q,"workload":{"kind":%q,"name":%q}}`, name, kind, app))
}

// testCommands is a workload that schedules, runs, and completes pods so
// the captured state is non-trivial in every section.
func testCommands() []Record {
	return []Record{
		SubmitRecord(manifestJSON("batch-1", "rodinia", "kmeans")),
		AdvanceRecord(int64(2 * sim.Second)),
		SubmitRecord(manifestJSON("lc-1", "inference", "imc")),
		SubmitRecord(manifestJSON("batch-2", "rodinia", "pathfinder")),
		AdvanceRecord(int64(5 * sim.Second)),
		SubmitRecord(manifestJSON("lc-2", "inference", "face")),
		AdvanceRecord(int64(10 * sim.Second)),
	}
}

// replayCmds rebuilds testBoot's control plane and applies cmds to it.
func replayCmds(tb testing.TB, cmds []Record) (*k8s.Orchestrator, *harvest.Controller) {
	tb.Helper()
	o, hctl, err := Rebuild(testBoot(), &scheduler.PP{})
	if err != nil {
		tb.Fatal(err)
	}
	for i, rec := range cmds {
		if _, err := ApplyRecord(o, rec); err != nil {
			tb.Fatalf("command %d/%d: %v", i+1, len(cmds), err)
		}
	}
	return o, hctl
}

func replayState(t *testing.T, cmds []Record) *State {
	t.Helper()
	return CaptureState(replayCmds(t, cmds))
}

func TestReplayIsDeterministic(t *testing.T) {
	a := replayState(t, testCommands())
	b := replayState(t, testCommands())
	if err := VerifyState(a, EncodeState(b)); err != nil {
		t.Fatalf("two replays of the same history diverged: %v", err)
	}
	if a.ClockMS != int64(17*sim.Second) {
		t.Fatalf("clock = %d, want %d", a.ClockMS, int64(17*sim.Second))
	}
	if len(a.Pods) != 4 {
		t.Fatalf("pods = %d, want 4", len(a.Pods))
	}
	if len(a.Series) == 0 {
		t.Fatal("no telemetry series captured")
	}
	if a.Harvest == nil {
		t.Fatal("harvest state missing despite enabled controller")
	}
}

func TestStateCodecRoundTrip(t *testing.T) {
	st := replayState(t, testCommands())
	got, err := DecodeState(EncodeState(st))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyState(got, EncodeState(st)); err != nil {
		t.Fatalf("state round-trip diverged: %v", err)
	}
}

func TestDecodeStateRejectsDamage(t *testing.T) {
	data := EncodeState(replayState(t, testCommands()))
	if _, err := DecodeState(data[:len(data)-3]); err == nil {
		t.Fatal("truncated state decoded without error")
	}
	if _, err := DecodeState(append(append([]byte(nil), data...), 0xFF)); err == nil {
		t.Fatal("state with trailing bytes decoded without error")
	}
	if _, err := DecodeState(nil); err == nil {
		t.Fatal("empty state decoded without error")
	}
}

// TestDecodeStateRejectsOldVersion: a version-1 digest, which carried a
// trailing daemon sequence number, and a version-2 digest, whose rings held
// 10,000 rows and so can never match a replay, are refused by name instead
// of being misread or failing verification at some byte.
func TestDecodeStateRejectsOldVersion(t *testing.T) {
	data := EncodeState(replayState(t, testCommands()))
	old := map[byte][]byte{
		1: append(append([]byte{1}, data[1:]...), 0, 0, 0, 0, 0, 0, 0, 0),
		2: append([]byte{2}, data[1:]...),
	}
	for v, enc := range old {
		_, err := DecodeState(enc)
		want := fmt.Sprintf("unsupported state version %d (want %d)", v, stateVersion)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d state: err = %v, want %s", v, err, want)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := &Snapshot{Boot: testBoot(), Cmds: testCommands(), State: replayState(t, testCommands())}
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Boot.Equal(snap.Boot) {
		t.Fatalf("boot round-trip: got %+v want %+v", got.Boot, snap.Boot)
	}
	if len(got.Cmds) != len(snap.Cmds) {
		t.Fatalf("cmds = %d, want %d", len(got.Cmds), len(snap.Cmds))
	}
	for i := range got.Cmds {
		if got.Cmds[i].Type != snap.Cmds[i].Type ||
			string(got.Cmds[i].Manifest) != string(snap.Cmds[i].Manifest) ||
			got.Cmds[i].MS != snap.Cmds[i].MS {
			t.Fatalf("cmd %d round-trip mismatch: %+v vs %+v", i, got.Cmds[i], snap.Cmds[i])
		}
	}
	if err := VerifyState(got.State, snap.EncodedState()); err != nil {
		t.Fatalf("snapshot state diverged: %v", err)
	}
}

func TestSnapshotCRCDetectsCorruption(t *testing.T) {
	data, err := EncodeSnapshot(&Snapshot{Boot: testBoot(), State: replayState(t, testCommands())})
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{8, len(data) / 2, len(data) - 5} {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0x40
		if _, err := DecodeSnapshot(mutated); err == nil {
			t.Fatalf("flipping byte %d was not detected", off)
		}
	}
	if _, err := DecodeSnapshot(data[:len(data)-2]); err == nil {
		t.Fatal("truncated snapshot decoded without error")
	}
	if _, err := DecodeSnapshot([]byte("NOTASNAP")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestWALRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.kkw")
	w, err := openWAL(path, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cmds := testCommands()
	for _, rec := range cmds {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, err := DecodeWAL(data)
	if err != nil || torn {
		t.Fatalf("clean WAL: torn=%v err=%v", torn, err)
	}
	if len(recs) != len(cmds) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(cmds))
	}

	// A crash mid-append leaves a torn final record: every truncation point
	// inside the last frame must drop exactly that record.
	for cut := len(data) - 1; cut > len(data)-8; cut-- {
		recs, torn, err := DecodeWAL(data[:cut])
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if !torn {
			t.Fatalf("cut=%d: tear not detected", cut)
		}
		if len(recs) != len(cmds)-1 {
			t.Fatalf("cut=%d: %d records survive, want %d", cut, len(recs), len(cmds)-1)
		}
	}

	// A flipped payload byte in the tail record fails its CRC the same way.
	mutated := append([]byte(nil), data...)
	mutated[len(mutated)-6] ^= 0x01
	recs, torn, err = DecodeWAL(mutated)
	if err != nil || !torn || len(recs) != len(cmds)-1 {
		t.Fatalf("corrupt tail: recs=%d torn=%v err=%v", len(recs), torn, err)
	}

	if _, _, err := DecodeWAL([]byte("BADMAGIC")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestWALReset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.kkw")
	w, err := openWAL(path, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(AdvanceRecord(100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(AdvanceRecord(200)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, err := DecodeWAL(data)
	if err != nil || torn {
		t.Fatalf("torn=%v err=%v", torn, err)
	}
	if len(recs) != 1 || recs[0].MS != 200 {
		t.Fatalf("after reset: %+v", recs)
	}
}

func TestWALTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.kkw")
	w, err := openWAL(path, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cmds := testCommands()
	for _, rec := range cmds[:3] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen for appending: the torn frame must be truncated away so the
	// new record extends the intact prefix instead of landing after
	// garbage (where replay would never reach it).
	w2, err := openWAL(path, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Records() != 2 {
		t.Fatalf("records after torn reopen = %d, want 2", w2.Records())
	}
	if err := w2.Append(AdvanceRecord(500)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, err := DecodeWAL(data2)
	if err != nil || torn {
		t.Fatalf("after reopen+append: torn=%v err=%v", torn, err)
	}
	if len(recs) != 3 || recs[2].MS != 500 || recs[2].Seq != 3 {
		t.Fatalf("after reopen+append: %+v", recs)
	}
}

// TestManagerTornTailRecoveryKeepsLaterAppends is the end-to-end check for
// the torn-tail fix: commands journaled *after* a torn-tail recovery must
// survive the *next* recovery.
func TestManagerTornTailRecoveryKeepsLaterAppends(t *testing.T) {
	cmds := testCommands()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.kkw")

	m1, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.StartJournal(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range cmds[:3] {
		if err := m1.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.walTail) != 2 {
		t.Fatalf("recovered %d records from torn WAL, want 2", len(m2.walTail))
	}
	if !m2.StatsSnapshot().RecoveredTorn {
		t.Fatal("torn tail not reported")
	}
	if err := m2.StartJournal(); err != nil {
		t.Fatal(err)
	}
	// The torn command was never acknowledged, so the client re-submits
	// it; more commands follow. All of them are fsync-acknowledged.
	for _, rec := range cmds[2:4] {
		if err := m2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	m3, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	tail := m3.walTail
	if len(tail) != 4 {
		t.Fatalf("recovered %d records, want 4 — acknowledged mutations lost after torn-tail recovery", len(tail))
	}
	for i, rec := range tail {
		if rec.Seq != uint64(i)+1 {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
	}
}

// TestManagerSkipsAbsorbedWALRecords simulates a crash between the snapshot
// rename and the WAL reset: both then hold the same commands, and recovery
// must not apply them twice.
func TestManagerSkipsAbsorbedWALRecords(t *testing.T) {
	cmds := testCommands()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.kkw")

	m1, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	o, hctl, err := Rebuild(testBoot(), &scheduler.PP{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.StartJournal(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range cmds[:4] {
		if err := m1.Append(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := ApplyRecord(o, rec); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.WriteSnapshot(CaptureState(o, hctl)); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash window: the snapshot published but the WAL reset never hit
	// disk — restore the pre-snapshot WAL image.
	if err := os.WriteFile(walPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	if snap := m2.loaded; snap == nil || len(snap.Cmds) != 4 {
		t.Fatalf("recovered snapshot: %+v", snap)
	}
	if len(m2.walTail) != 0 {
		t.Fatalf("recovered tail has %d records, want 0 — snapshot-absorbed commands would replay twice", len(m2.walTail))
	}
	if got := m2.StatsSnapshot().RecoveredSkipped; got != 4 {
		t.Fatalf("RecoveredSkipped = %d, want 4", got)
	}
	// Journaling continues with the absolute numbering intact.
	if err := m2.StartJournal(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Append(cmds[4]); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	m3, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	if snap3, tail3 := m3.loaded, m3.walTail; len(snap3.Cmds) != 4 || len(tail3) != 1 || tail3[0].Seq != 5 {
		t.Fatalf("third incarnation: snap=%d tail=%+v", len(snap3.Cmds), tail3)
	}
	// The recovered history must equal the uninterrupted one.
	o3, hctl3 := replayCmds(t, nil)
	if n, err := m3.Replay(o3, hctl3, nil); err != nil || n != 5 {
		t.Fatalf("Replay = %d, %v; want 5 commands", n, err)
	}
	for _, rec := range cmds[5:] {
		if _, err := ApplyRecord(o3, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := VerifyState(CaptureState(o3, hctl3), EncodeState(replayState(t, cmds))); err != nil {
		t.Fatalf("recovery through the crash window diverged: %v", err)
	}
}

func TestManagerRefusesWALGap(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(filepath.Join(dir, "wal.kkw"), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(AdvanceRecord(100)); err != nil { // seq 5, but no snapshot absorbed 1..4
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testBoot()); err == nil || !strings.Contains(err.Error(), "WAL gap") {
		t.Fatalf("gap in the command history accepted: %v", err)
	}
}

func TestManagerCrashRecoveryByteIdentical(t *testing.T) {
	cmds := testCommands()
	want := replayState(t, cmds)

	dir := t.TempDir()
	// First incarnation: journal the first 4 commands, snapshot after 3
	// (leaving one in the WAL), then "crash" without closing cleanly.
	m1, err := Open(dir, testBoot(), WithSnapshotEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	o, hctl, err := Rebuild(testBoot(), &scheduler.PP{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.StartJournal(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range cmds[:4] {
		if err := m1.Append(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := ApplyRecord(o, rec); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if err := m1.WriteSnapshot(CaptureState(o, hctl)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// No Close: the WAL's per-record fsync already made command 4 durable.

	// Second incarnation: recover, byte-verify the snapshot replay, finish
	// the remaining commands, and compare against an uninterrupted run.
	m2, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	if snap := m2.loaded; snap == nil || len(snap.Cmds) != 3 {
		t.Fatalf("recovered snapshot: %+v", snap)
	}
	if len(m2.walTail) != 1 {
		t.Fatalf("recovered WAL tail: %d records, want 1", len(m2.walTail))
	}
	o2, hctl2 := replayCmds(t, nil)
	if n, err := m2.Replay(o2, hctl2, nil); err != nil || n != 4 {
		t.Fatalf("Replay = %d, %v; want 4 commands", n, err)
	}
	for _, rec := range cmds[4:] {
		if _, err := ApplyRecord(o2, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := VerifyState(CaptureState(o2, hctl2), EncodeState(want)); err != nil {
		t.Fatalf("crash-recovery run diverged from uninterrupted run: %v", err)
	}
}

func TestManagerRefusesForeignBootstrap(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSnapshot(replayState(t, nil)); err != nil {
		t.Fatal(err)
	}
	other := testBoot()
	other.Seed = 99
	if _, err := Open(dir, other); err == nil ||
		!strings.Contains(err.Error(), "different control plane") {
		t.Fatalf("foreign bootstrap accepted: %v", err)
	}
}

func TestManagerAppendBeforeJournalFails(t *testing.T) {
	m, err := Open(t.TempDir(), testBoot())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(AdvanceRecord(1)); err == nil {
		t.Fatal("Append before StartJournal succeeded")
	}
}

func TestRunSnapshotStore(t *testing.T) {
	dir := t.TempDir()
	key := "fig9/App-Mix-1/PP/seed=3"
	snap := &Snapshot{Boot: Bootstrap{Kind: "experiment", RunKey: key}, State: replayState(t, nil)}
	if err := WriteRunSnapshot(dir, key, snap); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadRunSnapshot(dir, key)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got.Boot.RunKey != key {
		t.Fatalf("run key round-trip: %q", got.Boot.RunKey)
	}
	if _, ok, _ := LoadRunSnapshot(dir, "other/key"); ok {
		t.Fatal("absent run snapshot reported present")
	}
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	files, err := store.RunSnapshots()
	if err != nil || len(files) != 1 {
		t.Fatalf("run snapshots: %v err=%v", files, err)
	}
	if s := sanitizeKey(key); strings.ContainsAny(s, "/") {
		t.Fatalf("sanitizeKey left a path separator: %q", s)
	}
}

func TestRecordValidate(t *testing.T) {
	if err := (Record{Type: RecordSubmit}).validate(); err == nil {
		t.Fatal("submit without manifest accepted")
	}
	if err := (Record{Type: RecordAdvance, MS: 0}).validate(); err == nil {
		t.Fatal("zero advance accepted")
	}
	if err := (Record{Type: 99}).validate(); err == nil {
		t.Fatal("unknown type accepted")
	}
}
