package api

import (
	"fmt"

	"kubeknots/internal/persist"
)

// Recover attaches a persistence manager and replays its journal into the
// freshly-constructed server: first the snapshot's command history, then
// the WAL tail that accumulated after it. The orchestrator must be in its
// just-built state (same Bootstrap the manager was opened with, nothing
// submitted, clock at zero) — recovery re-executes every journaled command
// and then byte-verifies the rebuilt state against the snapshot's, so any
// divergence (a code change that altered simulation behaviour, a corrupted
// journal) fails loudly here instead of silently forking history.
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
	snap, tail := m.Recovery()
	replayed := 0
	apply := func(recs []persist.Record) error {
		for _, rec := range recs {
			pod, err := persist.ApplyRecord(s.orch, rec)
			if err != nil {
				return fmt.Errorf("replay command %d: %w", replayed+1, err)
			}
			if pod != nil {
				s.pods[pod.Name] = pod
			}
			replayed++
		}
		return nil
	}
	if snap != nil {
		if err := apply(snap.Cmds); err != nil {
			return replayed, err
		}
		// The snapshot's state section is the determinism check: replaying
		// the same commands through today's binary must land on the exact
		// bytes the snapshot recorded.
		got := persist.CaptureState(s.orch, s.harvest)
		if err := persist.VerifyState(got, snap.EncodedState()); err != nil {
			return replayed, fmt.Errorf("snapshot verification: %w", err)
		}
	}
	if err := apply(tail); err != nil {
		return replayed, err
	}
	persist.ReplayedMetric(replayed)
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
