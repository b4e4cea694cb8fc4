package persist

import (
	"fmt"
	"sync"
)

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithSnapshotEvery auto-snapshots after every n journaled commands
// (0 = only on demand / shutdown).
func WithSnapshotEvery(n int) ManagerOption {
	return func(m *Manager) { m.snapshotEvery = n }
}

// WithSyncEvery batches WAL fsyncs to one flush per n appends.
func WithSyncEvery(n int) ManagerOption {
	return func(m *Manager) { m.syncEvery = n }
}

// Manager owns a daemon's state directory: it carries the recovery inputs
// found at open (last snapshot + WAL tail), journals every accepted command,
// and rotates the WAL into a fresh snapshot on the configured cadence.
//
// Lifecycle: Open → Recovery (replay by the caller) → StartJournal →
// Append per command, WriteSnapshot when SnapshotDue → Close.
type Manager struct {
	mu            sync.Mutex
	store         *Store
	boot          Bootstrap
	snapshotEvery int
	syncEvery     int

	// cmds is the full command history: the recovered prefix plus every
	// Append since. It becomes the Cmds section of the next snapshot.
	cmds []Record
	// sinceSnapshot counts commands journaled since the last snapshot.
	sinceSnapshot int

	wal     *WAL
	loaded  *Snapshot
	walTail []Record
	walTorn bool
	journal bool
	stats   Stats
}

// Stats is the /v1/state wire view of the persistence layer.
type Stats struct {
	Dir               string `json:"dir"`
	Commands          int    `json:"commands"`
	WALRecords        int    `json:"wal_records"`
	SnapshotsWritten  int    `json:"snapshots_written"`
	LastSnapshotBytes int    `json:"last_snapshot_bytes,omitempty"`
	RecoveredCommands int    `json:"recovered_commands"`
	RecoveredTorn     bool   `json:"recovered_torn_tail,omitempty"`
	// RecoveredSkipped counts WAL records dropped at recovery because the
	// snapshot had already absorbed them (crash between snapshot rename
	// and WAL reset).
	RecoveredSkipped int `json:"recovered_skipped,omitempty"`
}

// Open loads the state directory and validates any existing snapshot
// against boot: recovering into a differently-configured control plane
// would replay commands onto the wrong trajectory, so it is refused.
func Open(dir string, boot Bootstrap, opts ...ManagerOption) (*Manager, error) {
	store, err := OpenStore(dir)
	if err != nil {
		return nil, err
	}
	m := &Manager{store: store, boot: boot, syncEvery: 1}
	for _, opt := range opts {
		opt(m)
	}
	snap, err := store.LoadSnapshot()
	if err != nil {
		return nil, err
	}
	if snap != nil && !snap.Boot.Equal(boot) {
		return nil, fmt.Errorf("persist: state dir %s was written by a different control plane: stored %s, running %s",
			dir, mustJSON(snap.Boot), mustJSON(boot))
	}
	tail, torn, err := store.LoadWAL()
	if err != nil {
		return nil, err
	}
	// WAL sequence numbers are absolute command indices, so records the
	// snapshot already absorbed (a crash landed between the snapshot rename
	// and the WAL reset) are recognized and skipped instead of re-applied.
	// A gap above the snapshot's count means fsync-acknowledged commands
	// vanished — refuse to recover onto a forked history.
	base := uint64(0)
	if snap != nil {
		base = uint64(len(snap.Cmds))
	}
	skipped := 0
	var kept []Record
	for _, rec := range tail {
		if rec.Seq <= base {
			skipped++
			continue
		}
		if want := base + uint64(len(kept)) + 1; rec.Seq != want {
			return nil, fmt.Errorf("persist: WAL gap in %s: record seq %d, want %d", dir, rec.Seq, want)
		}
		kept = append(kept, rec)
	}
	m.loaded, m.walTail, m.walTorn = snap, kept, torn
	if snap != nil {
		m.cmds = append(m.cmds, snap.Cmds...)
	}
	m.cmds = append(m.cmds, kept...)
	m.sinceSnapshot = len(kept)
	m.stats = Stats{
		Dir:               dir,
		RecoveredCommands: len(m.cmds),
		RecoveredTorn:     torn,
		RecoveredSkipped:  skipped,
	}
	return m, nil
}

// Recovery returns the snapshot and WAL tail found at Open, for the caller
// to replay (snapshot commands first, then the tail). Nil snapshot and an
// empty tail mean a fresh directory, or a manager already journaling.
func (m *Manager) Recovery() (*Snapshot, []Record) { return m.loaded, m.walTail }

// StartJournal opens the WAL for appending — any torn tail is truncated
// away first, so new records extend the intact prefix. Call after recovery
// replay has finished; Append before StartJournal is an error. The manager
// then lets go of the recovery inputs: the command history lives on in the
// next snapshot's Cmds, and the decoded snapshot state is not kept for the
// daemon's lifetime.
func (m *Manager) StartJournal() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	wal, err := m.store.AppendWAL(m.syncEvery, uint64(len(m.cmds)))
	if err != nil {
		return err
	}
	m.wal = wal
	m.journal = true
	m.loaded, m.walTail = nil, nil
	return nil
}

// Append journals one accepted command. Write-ahead discipline: the caller
// must append before mutating, and refuse the mutation if this fails.
func (m *Manager) Append(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.journal {
		return fmt.Errorf("persist: Append before StartJournal")
	}
	rec.Seq = uint64(len(m.cmds)) + 1 // matches the seq the WAL assigns
	if err := m.wal.Append(rec); err != nil {
		mErrors.Inc()
		return err
	}
	mWALRecords.With(recordTypeName(rec.Type)).Inc()
	m.cmds = append(m.cmds, rec)
	m.sinceSnapshot++
	return nil
}

// SnapshotDue reports whether the auto-snapshot cadence has elapsed.
func (m *Manager) SnapshotDue() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotEvery > 0 && m.sinceSnapshot >= m.snapshotEvery
}

// WriteSnapshot durably absorbs the full command history plus the given
// state, then resets the WAL. On success the WAL is empty and the snapshot
// alone reproduces the control plane. A crash (or Reset failure) between
// the snapshot publish and the WAL reset is benign: recovery skips WAL
// records whose sequence number the snapshot already covers.
func (m *Manager) WriteSnapshot(st *State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.store.WriteSnapshot(&Snapshot{
		Boot:  m.boot,
		Cmds:  append([]Record(nil), m.cmds...),
		State: st,
	})
	if err != nil {
		return err
	}
	m.stats.SnapshotsWritten++
	m.stats.LastSnapshotBytes = n
	m.sinceSnapshot = 0
	if m.wal != nil {
		return m.wal.Reset()
	}
	return nil
}

// StatsSnapshot returns the current persistence stats.
func (m *Manager) StatsSnapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Commands = len(m.cmds)
	if m.wal != nil {
		st.WALRecords = m.wal.Records()
	}
	return st
}

// Close flushes and closes the WAL.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return nil
	}
	err := m.wal.Close()
	m.wal = nil
	m.journal = false
	return err
}
