package persist

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// referenceVerify is VerifyState as it was before it compared against
// section bytes: it encodes both states and, on a mismatch, reports the
// first divergence. The messages of VerifyState must stay the same.
func referenceVerify(got, want *State) error {
	gb, wb := EncodeState(got), EncodeState(want)
	if bytes.Equal(gb, wb) {
		return nil
	}
	if got.ClockMS != want.ClockMS {
		return fmt.Errorf("clock diverged: got %d ms, want %d ms", got.ClockMS, want.ClockMS)
	}
	if got.Fingerprint != want.Fingerprint {
		return fmt.Errorf("engine fingerprint diverged at %d ms: got %#x, want %#x",
			got.ClockMS, got.Fingerprint, want.Fingerprint)
	}
	if len(got.Pods) != len(want.Pods) {
		return fmt.Errorf("pod count diverged: got %d, want %d", len(got.Pods), len(want.Pods))
	}
	for i := range got.Pods {
		if got.Pods[i] != want.Pods[i] {
			return fmt.Errorf("pod %q diverged: got %+v, want %+v",
				want.Pods[i].Name, got.Pods[i], want.Pods[i])
		}
	}
	i := 0
	for i < len(gb) && i < len(wb) && gb[i] == wb[i] {
		i++
	}
	return fmt.Errorf("state diverged at byte %d of %d (got %d bytes)", i, len(wb), len(gb))
}

// TestVerifyStateAgainstSectionBytes writes a snapshot, reads it back and
// verifies replayed states against its state-section bytes. A faithful
// replay passes; each kind of divergence (clock, engine fingerprint, pod
// count, one pod, a byte past the pods) fails with the message the
// re-encoding verifier gave.
func TestVerifyStateAgainstSectionBytes(t *testing.T) {
	cmds := testCommands()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.WriteSnapshot(&Snapshot{Boot: testBoot(), Cmds: cmds, State: replayState(t, cmds)}); err != nil {
		t.Fatal(err)
	}
	snap, err := store.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := snap.EncodedState()
	if !bytes.Equal(want, EncodeState(snap.State)) {
		t.Fatal("a decoded snapshot's EncodedState differs from the encoding of its State")
	}
	if err := VerifyState(replayState(t, cmds), want); err != nil {
		t.Fatalf("faithful replay failed verification: %v", err)
	}

	if len(snap.State.Pods) < 2 || len(snap.State.Series) == 0 {
		t.Fatalf("state too small to exercise every divergence: %d pods, %d series",
			len(snap.State.Pods), len(snap.State.Series))
	}
	cases := []struct {
		name   string
		prefix string
		edit   func(*State)
	}{
		{"clock", "clock diverged: ", func(s *State) { s.ClockMS++ }},
		{"fingerprint", "engine fingerprint diverged at ", func(s *State) { s.Fingerprint ^= 1 }},
		{"pod count", "pod count diverged: ", func(s *State) { s.Pods = s.Pods[:len(s.Pods)-1] }},
		{"pod", fmt.Sprintf("pod %q diverged: ", snap.State.Pods[1].Name), func(s *State) { s.Pods[1].Crashes++ }},
		{"byte offset", "state diverged at byte ", func(s *State) { s.Series[0].Points[0].Value++ }},
	}
	for _, tc := range cases {
		got, err := DecodeState(want)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(got)
		err = VerifyState(got, want)
		if err == nil {
			t.Fatalf("%s: divergence not detected", tc.name)
		}
		if !strings.HasPrefix(err.Error(), tc.prefix) {
			t.Errorf("%s: error %q, want prefix %q", tc.name, err, tc.prefix)
		}
		if ref := referenceVerify(got, snap.State); err.Error() != ref.Error() {
			t.Errorf("%s: message changed:\n got %s\nwant %s", tc.name, err, ref)
		}
	}
}

// TestRecoveryReleasedAfterStartJournal: the snapshot and WAL tail found at
// Open are for replay only. Once the manager journals it holds neither,
// and the next snapshot still carries the whole command history.
func TestRecoveryReleasedAfterStartJournal(t *testing.T) {
	cmds := testCommands()
	dir := t.TempDir()
	m1, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.StartJournal(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range cmds {
		if err := m1.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if err := m1.WriteSnapshot(replayState(t, cmds[:4])); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	snap, tail := m2.Recovery()
	if snap == nil || len(snap.Cmds) != 4 || len(tail) != len(cmds)-4 {
		t.Fatalf("before StartJournal: snapshot %v, %d tail records; want 4 snapshot commands and %d tail records",
			snap != nil, len(tail), len(cmds)-4)
	}
	if err := m2.StartJournal(); err != nil {
		t.Fatal(err)
	}
	if snap, tail := m2.Recovery(); snap != nil || tail != nil {
		t.Fatalf("after StartJournal the manager still holds a snapshot (%v) or %d tail records", snap != nil, len(tail))
	}
	if err := m2.WriteSnapshot(replayState(t, cmds)); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	m3, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	snap3, tail3 := m3.Recovery()
	if snap3 == nil || len(snap3.Cmds) != len(cmds) || len(tail3) != 0 {
		t.Fatalf("next recovery: snapshot %v, %d tail records; want all %d commands in the snapshot", snap3 != nil, len(tail3), len(cmds))
	}
	for i := range cmds {
		if snap3.Cmds[i].Type != cmds[i].Type || snap3.Cmds[i].MS != cmds[i].MS || !bytes.Equal(snap3.Cmds[i].Manifest, cmds[i].Manifest) {
			t.Fatalf("command %d = %+v, want %+v", i, snap3.Cmds[i], cmds[i])
		}
	}
}
