package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// snapshotMagic versions the container format; a layout change bumps the
// trailing digits and old files are rejected loudly instead of misparsed.
var snapshotMagic = []byte("KKSNAP01")

// Section tags. Each section is [4-byte tag][uint32 length][payload]; the
// CRCF footer carries a CRC32 (IEEE) over every byte before its own tag.
var (
	tagBoot  = [4]byte{'B', 'O', 'O', 'T'}
	tagCmds  = [4]byte{'C', 'M', 'D', 'S'}
	tagState = [4]byte{'S', 'T', 'A', 'T'}
	tagCRC   = [4]byte{'C', 'R', 'C', 'F'}
)

// Snapshot is one durable control-plane checkpoint: the bootstrap recipe,
// the full command history up to the capture point, and the serialized
// observable state used to verify a replay.
type Snapshot struct {
	Boot  Bootstrap
	Cmds  []Record
	State *State

	// stateBytes is the State section as read from disk; nil for a
	// snapshot built in memory.
	stateBytes []byte
}

// EncodedState returns the snapshot's state in EncodeState form, for
// VerifyState: the State section's bytes as read from disk for a decoded
// snapshot (State is their decoding), or EncodeState(State) for one built
// in memory. A decoded snapshot's bytes do not follow later edits to State.
func (s *Snapshot) EncodedState() []byte {
	if s.stateBytes != nil {
		return s.stateBytes
	}
	return EncodeState(s.State)
}

// EncodeSnapshot serializes a snapshot into the versioned, length-prefixed
// section format with a CRC footer.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	if snap.State == nil {
		return nil, fmt.Errorf("persist: snapshot without state")
	}
	w := &writer{buf: append([]byte(nil), snapshotMagic...)}

	section := func(tag [4]byte, payload []byte) {
		w.buf = append(w.buf, tag[:]...)
		w.bytes(payload)
	}

	section(tagBoot, mustJSON(snap.Boot))

	cw := &writer{}
	cw.u32(uint32(len(snap.Cmds)))
	for _, rec := range snap.Cmds {
		if err := rec.validate(); err != nil {
			return nil, err
		}
		cw.buf = appendRecord(cw.buf, rec)
	}
	section(tagCmds, cw.buf)

	section(tagState, EncodeState(snap.State))

	sum := crc32.ChecksumIEEE(w.buf)
	w.buf = append(w.buf, tagCRC[:]...)
	w.u32(4)
	w.u32(sum)
	return w.buf, nil
}

// DecodeSnapshot parses and CRC-verifies a snapshot file.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, fmt.Errorf("persist: not a snapshot file (bad magic)")
	}
	r := &reader{b: data, off: len(snapshotMagic)}
	snap := &Snapshot{}
	var sawBoot, sawState, sawCRC bool
	for r.err == nil && r.off < len(data) {
		tagStart := r.off
		var tag [4]byte
		copy(tag[:], r.take(4, "section tag"))
		payload := r.bytes("section payload")
		if r.err != nil {
			break
		}
		switch tag {
		case tagBoot:
			if err := json.Unmarshal(payload, &snap.Boot); err != nil {
				return nil, fmt.Errorf("persist: decode bootstrap: %w", err)
			}
			sawBoot = true
		case tagCmds:
			cmds, err := decodeRecords(payload)
			if err != nil {
				return nil, err
			}
			snap.Cmds = cmds
		case tagState:
			st, err := DecodeState(payload)
			if err != nil {
				return nil, err
			}
			snap.State, snap.stateBytes = st, payload
			sawState = true
		case tagCRC:
			if len(payload) != 4 {
				return nil, fmt.Errorf("persist: malformed CRC footer")
			}
			want := uint32(payload[0]) | uint32(payload[1])<<8 |
				uint32(payload[2])<<16 | uint32(payload[3])<<24
			if got := crc32.ChecksumIEEE(data[:tagStart]); got != want {
				return nil, fmt.Errorf("persist: snapshot CRC mismatch: file %#x, computed %#x", want, got)
			}
			sawCRC = true
			if r.off != len(data) {
				return nil, fmt.Errorf("persist: %d bytes after CRC footer", len(data)-r.off)
			}
		default:
			return nil, fmt.Errorf("persist: unknown snapshot section %q", tag[:])
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if !sawCRC {
		return nil, fmt.Errorf("persist: snapshot missing CRC footer")
	}
	if !sawBoot || !sawState {
		return nil, fmt.Errorf("persist: snapshot missing required sections")
	}
	return snap, nil
}

// appendRecord serializes one record payload: [type][body].
func appendRecord(buf []byte, rec Record) []byte {
	w := &writer{buf: buf}
	switch rec.Type {
	case RecordSubmit:
		w.u8(RecordSubmit)
		w.bytes(rec.Manifest)
	case RecordAdvance:
		w.u8(RecordAdvance)
		w.i64(rec.MS)
	}
	return w.buf
}

// decodeRecordPayload parses one record payload produced by appendRecord.
func decodeRecordPayload(r *reader) (Record, error) {
	switch t := r.u8("record type"); t {
	case RecordSubmit:
		rec := Record{Type: RecordSubmit, Manifest: r.bytes("manifest")}
		if r.err != nil {
			return Record{}, r.err
		}
		return rec, rec.validate()
	case RecordAdvance:
		rec := Record{Type: RecordAdvance, MS: r.i64("advance ms")}
		if r.err != nil {
			return Record{}, r.err
		}
		return rec, rec.validate()
	default:
		if r.err != nil {
			return Record{}, r.err
		}
		return Record{}, fmt.Errorf("persist: unknown record type %d", t)
	}
}

func decodeRecords(payload []byte) ([]Record, error) {
	r := &reader{b: payload}
	n := r.count("commands", 2)
	var cmds []Record
	for i := 0; i < n && r.err == nil; i++ {
		rec, err := decodeRecordPayload(r)
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, rec)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return cmds, nil
}
