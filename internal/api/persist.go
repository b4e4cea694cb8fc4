package api

import (
	"fmt"

	"kubeknots/internal/persist"
)

// Recover attaches a persistence manager and replays its journal into the
// freshly-constructed server through persist.Manager.Replay: the snapshot's
// command history, a byte-verify against the snapshot's state, then the WAL
// tail. The orchestrator must be in its just-built state (same Bootstrap
// the manager was opened with, nothing submitted, clock at zero).
//
// On success the manager starts journaling and the server owns it; Close
// the server (or the manager) on shutdown. Returns the number of commands
// replayed.
func (s *Server) Recover(m *persist.Manager) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist != nil {
		return 0, fmt.Errorf("api: persistence already attached")
	}
	replayed, err := m.Replay(s.orch, s.harvest, s.addPod)
	if err != nil {
		return replayed, err
	}
	if err := m.StartJournal(); err != nil {
		return replayed, fmt.Errorf("api: start journal: %w", err)
	}
	s.persist = m
	if replayed > 0 {
		s.version.Add(1)
		s.buildSnapshotLocked()
	}
	return replayed, nil
}

// maybeSnapshotLocked folds the journal into a fresh snapshot when one is
// due. Caller holds mu exclusively. Snapshot failures are recorded in the
// persist_errors_total metric but do not fail the request that triggered
// them — the WAL still has every command, so durability is not lost, only
// the next recovery's replay gets longer.
func (s *Server) maybeSnapshotLocked() {
	if s.persist == nil || !s.persist.SnapshotDue() {
		return
	}
	st := persist.CaptureState(s.orch, s.harvest)
	_ = s.persist.WriteSnapshot(st)
}

// Close flushes and closes the attached persistence manager, writing a
// final snapshot so the next start replays nothing. A server without
// persistence closes as a no-op.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist == nil {
		return nil
	}
	st := persist.CaptureState(s.orch, s.harvest)
	if err := s.persist.WriteSnapshot(st); err != nil {
		s.persist.Close()
		return err
	}
	return s.persist.Close()
}
