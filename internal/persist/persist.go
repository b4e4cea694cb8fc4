// Package persist makes the control plane durable: a deterministic state
// snapshot plus a write-ahead log, so a crashed apiserver (or a killed
// experiment run) recovers to byte-identical state.
//
// The simulation engine's pending events are Go closures and cannot be
// serialized, so recovery is replay-based: a snapshot carries (a) the
// Bootstrap — everything needed to reconstruct the control plane from its
// seed — and (b) the full command history (pod submissions and /advance
// steps). Replaying the commands through a freshly built control plane
// reproduces the exact event sequence, RNG draws and tie-breaks of the
// original run. The snapshot additionally carries a serialized State — the
// observable control-plane state at capture time — which is compared
// byte-for-byte against the replayed state to *prove* the recovery landed
// on the same trajectory, and which `knotsctl state inspect` can read
// offline without replaying anything.
//
// The WAL holds the commands accepted since the last snapshot; recovery is
// load snapshot → replay its commands → verify → replay the WAL tail. A
// torn final record (crash mid-write) is detected by its CRC and dropped.
package persist

import (
	"bytes"
	"encoding/json"
	"fmt"

	"kubeknots/internal/sim"
)

// Bootstrap captures everything needed to rebuild a control plane from
// scratch. Stored as JSON inside the snapshot so the format survives field
// additions.
type Bootstrap struct {
	// Kind is "apiserver" or "experiment".
	Kind string `json:"kind"`
	// Seed is the simulation engine seed.
	Seed int64 `json:"seed"`
	// Nodes is the cluster size (0 = package default).
	Nodes int `json:"nodes,omitempty"`
	// Hetero selects the heterogeneous GPU pool.
	Hetero bool `json:"hetero,omitempty"`
	// Scheduler is the scheduler name as accepted by SchedulerByName.
	Scheduler string `json:"scheduler,omitempty"`
	// HarvestSpec is the harvest controller spec string ("" = disabled).
	HarvestSpec string `json:"harvestSpec,omitempty"`
	// RunKey identifies an experiment grid point (Kind "experiment" only).
	RunKey string `json:"runKey,omitempty"`
}

// Equal reports whether two bootstraps describe the same control plane.
func (b Bootstrap) Equal(o Bootstrap) bool {
	return bytes.Equal(mustJSON(b), mustJSON(o))
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of scalars cannot fail to marshal
	}
	return data
}

// Record types in the command log.
const (
	// RecordSubmit carries a canonical pod-manifest JSON.
	RecordSubmit = byte(1)
	// RecordAdvance carries a clock step in simulated milliseconds.
	RecordAdvance = byte(2)
)

// Record is one durable control-plane command.
type Record struct {
	Type byte
	// Manifest is the canonical manifest JSON (RecordSubmit).
	Manifest []byte
	// MS is the advance step (RecordAdvance).
	MS int64
	// Seq is the absolute 1-based command index, assigned by the WAL when
	// the record is journaled. Snapshot command lists carry 0 — there the
	// position is the sequence. Recovery uses Seq to skip WAL records a
	// snapshot already absorbed (a crash between the snapshot rename and
	// the WAL reset leaves both holding the same commands).
	Seq uint64
}

// SubmitRecord wraps a canonical manifest JSON.
func SubmitRecord(manifest []byte) Record {
	return Record{Type: RecordSubmit, Manifest: manifest}
}

// AdvanceRecord wraps a clock step.
func AdvanceRecord(ms int64) Record { return Record{Type: RecordAdvance, MS: ms} }

func (r Record) validate() error {
	switch r.Type {
	case RecordSubmit:
		if len(r.Manifest) == 0 {
			return fmt.Errorf("persist: submit record with empty manifest")
		}
	case RecordAdvance:
		if r.MS <= 0 {
			return fmt.Errorf("persist: advance record with non-positive step %d", r.MS)
		}
	default:
		return fmt.Errorf("persist: unknown record type %d", r.Type)
	}
	return nil
}

// RunSpec configures crash-recovery checkpointing for one experiment run.
// The zero value disables persistence entirely; a disabled spec leaves the
// run byte-identical to a build without the subsystem.
type RunSpec struct {
	// Dir is the state directory shared by every grid point of a sweep.
	Dir string
	// CrashAt, when positive, injects a controller crash at that simulated
	// time: the run snapshots its state and panics. A later run with the
	// same Dir finds the snapshot, re-executes deterministically, verifies
	// byte-identity at the capture point and continues to completion.
	CrashAt sim.Time
}

// Enabled reports whether the spec requests persistence.
func (r RunSpec) Enabled() bool { return r.Dir != "" }

// CrashError is the panic payload of an injected experiment crash. The
// sweep pool converts it into a job error, so a crash run exits non-zero
// after every grid point has written its snapshot.
type CrashError struct {
	Key string
	At  sim.Time
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("persist: injected crash of %s at %v (snapshot written)", e.Key, e.At)
}
