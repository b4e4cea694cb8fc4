package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSnapshotRoundTrip feeds arbitrary bytes into DecodeSnapshot. Whatever
// decodes must re-encode and decode again to the same bytes (the format is
// canonical), and nothing may panic.
func FuzzSnapshotRoundTrip(f *testing.F) {
	// Seed with real encodings: empty-state, command-bearing, and a harvest
	// snapshot, plus a corrupted variant to steer the fuzzer at the CRC.
	empty, err := EncodeSnapshot(&Snapshot{Boot: testBoot(), State: &State{}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	cmds := testCommands()
	full, err := EncodeSnapshot(&Snapshot{Boot: testBoot(), Cmds: cmds, State: CaptureState(replayCmds(f, cmds))})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	bad := append([]byte(nil), full...)
	bad[len(bad)/2] ^= 0xA5
	f.Add(bad)
	f.Add([]byte("KKSNAP01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		out, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		again, err := DecodeSnapshot(out)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		out2, err := EncodeSnapshot(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatal("snapshot encoding is not canonical across a round trip")
		}
	})
}

// FuzzWALReplay feeds arbitrary bytes into DecodeWAL. Any records it yields
// must individually validate (the decoder must never surface a record that
// Append would have refused), and nothing may panic.
func FuzzWALReplay(f *testing.F) {
	f.Add(append([]byte(nil), walMagic...))
	f.Add([]byte{})
	f.Add([]byte("BADMAGIC"))
	// A real two-record WAL built through the writer, plus torn variants.
	clean := encodeWALBytes(f, []Record{
		SubmitRecord(manifestJSON("f", "rodinia", "pathfinder")),
		AdvanceRecord(1234),
	})
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)-2] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, torn, err := DecodeWAL(data)
		if err != nil {
			if torn || len(recs) != 0 {
				t.Fatalf("error with partial results: recs=%d torn=%v", len(recs), torn)
			}
			return
		}
		for i, rec := range recs {
			if verr := rec.validate(); verr != nil {
				t.Fatalf("record %d fails validation after decode: %v", i, verr)
			}
		}
	})
}

func encodeWALBytes(f *testing.F, recs []Record) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "wal.kkw")
	w, err := openWAL(path, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}
