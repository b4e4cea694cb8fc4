package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"kubeknots/internal/experiments"
	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/persist"
	"kubeknots/internal/sim"
)

// stateCmd implements the offline `knotsctl state` subcommands. They read a
// -state-dir written by the apiserver (snapshot + WAL) or a kubeknots
// -crash-at run (per-run snapshots) — no server connection required.
func stateCmd(args []string, stdout, stderr io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: knotsctl state inspect|verify|compact <state-dir>")
	}
	verb, dir := args[0], args[1]
	if _, err := os.Stat(dir); err != nil {
		return fmt.Errorf("state dir: %w", err)
	}
	switch verb {
	case "inspect":
		return stateInspect(dir, stdout)
	case "verify":
		return stateVerify(dir, stdout)
	case "compact":
		return stateCompact(dir, stdout)
	}
	return fmt.Errorf("unknown state command %q (want inspect, verify, or compact)", verb)
}

// stateInspect prints what the dir holds: the control-plane snapshot, the
// WAL tail, and any per-run experiment snapshots — each with its bootstrap
// recipe, clock, and record counts. CRC or format damage surfaces as the
// load error for the affected file.
func stateInspect(dir string, w io.Writer) error {
	store, err := persist.OpenStore(dir)
	if err != nil {
		return err
	}
	found := false
	snap, err := store.LoadSnapshot()
	if err != nil {
		fmt.Fprintf(w, "snapshot: CORRUPT: %v\n", err)
		found = true
	} else if snap != nil {
		found = true
		printSnapshot(w, "snapshot", snap)
	}
	if recs, torn, err := store.LoadWAL(); err != nil {
		fmt.Fprintf(w, "wal: CORRUPT: %v\n", err)
		found = true
	} else if recs != nil || fileExists(filepath.Join(dir, "wal.kkw")) {
		found = true
		state := "clean"
		if torn {
			state = "torn tail dropped"
		}
		fmt.Fprintf(w, "wal: %d records (%s)\n", len(recs), state)
	}
	runs, err := store.RunSnapshots()
	if err != nil {
		return err
	}
	for _, path := range runs {
		found = true
		rsnap, lerr := persist.LoadSnapshotFile(path)
		if lerr != nil {
			fmt.Fprintf(w, "%s: CORRUPT: %v\n", filepath.Base(path), lerr)
			continue
		}
		printSnapshot(w, filepath.Base(path), rsnap)
	}
	if !found {
		fmt.Fprintln(w, "empty state dir")
	}
	return nil
}

func printSnapshot(w io.Writer, label string, snap *persist.Snapshot) {
	b := snap.Boot
	fmt.Fprintf(w, "%s: kind=%s seed=%d nodes=%d scheduler=%s", label, b.Kind, b.Seed, b.Nodes, b.Scheduler)
	if b.Hetero {
		fmt.Fprint(w, " hetero")
	}
	if b.HarvestSpec != "" {
		fmt.Fprintf(w, " harvest=%q", b.HarvestSpec)
	}
	if b.RunKey != "" {
		fmt.Fprintf(w, " run=%q", b.RunKey)
	}
	fmt.Fprintf(w, "\n  clock=%v commands=%d pods=%d events=%d series=%d\n",
		sim.Time(snap.State.ClockMS), len(snap.Cmds), len(snap.State.Pods),
		len(snap.State.Events), len(snap.State.Series))
}

// stateVerify replays the snapshot's command history through a fresh
// control plane and byte-compares the result against the recorded state —
// the same determinism check recovery performs, runnable offline.
func stateVerify(dir string, w io.Writer) error {
	store, err := persist.OpenStore(dir)
	if err != nil {
		return err
	}
	snap, err := store.LoadSnapshot()
	if err != nil {
		return err
	}
	if snap == nil {
		return fmt.Errorf("no snapshot in %s", dir)
	}
	if snap.Boot.Kind != "apiserver" {
		return fmt.Errorf("verify supports apiserver state (this dir is %q); its snapshot has no replayable command history", snap.Boot.Kind)
	}
	o, hctl, err := replaySnapshot(snap)
	if err != nil {
		return err
	}
	got := persist.CaptureState(o, hctl)
	if err := persist.VerifyState(got, snap.EncodedState()); err != nil {
		return fmt.Errorf("verification FAILED: %w", err)
	}
	recs, torn, err := store.LoadWAL()
	if err != nil {
		return err
	}
	applied, skipped := 0, 0
	for _, rec := range recs {
		// Records the snapshot already absorbed (crash between snapshot
		// rename and WAL reset) are identified by sequence number and
		// must not be re-applied.
		if rec.Seq <= uint64(len(snap.Cmds)) {
			skipped++
			continue
		}
		if _, err := persist.ApplyRecord(o, rec); err != nil {
			return fmt.Errorf("wal record seq %d does not apply: %w", rec.Seq, err)
		}
		applied++
	}
	tail := ""
	if torn {
		tail = " (torn tail dropped)"
	}
	if skipped > 0 {
		tail += fmt.Sprintf(" (%d already absorbed by the snapshot)", skipped)
	}
	fmt.Fprintf(w, "verified: %d snapshot commands byte-identical, %d wal records apply%s\n",
		len(snap.Cmds), applied, tail)
	return nil
}

// stateCompact folds the WAL tail into the snapshot: replay everything,
// write one fresh snapshot holding the full history, then truncate the WAL.
// The next recovery replays from the snapshot alone.
func stateCompact(dir string, w io.Writer) error {
	store, err := persist.OpenStore(dir)
	if err != nil {
		return err
	}
	snap, err := store.LoadSnapshot()
	if err != nil {
		return err
	}
	if snap == nil {
		return fmt.Errorf("no snapshot in %s", dir)
	}
	if snap.Boot.Kind != "apiserver" {
		return fmt.Errorf("compact supports apiserver state (this dir is %q)", snap.Boot.Kind)
	}
	tail, torn, err := store.LoadWAL()
	if err != nil {
		return err
	}
	if torn {
		fmt.Fprintln(w, "warning: dropping torn wal tail")
	}
	// Fold only records past the snapshot's absorbed count — a stale WAL
	// left by a crash between snapshot rename and reset would otherwise
	// double its commands into the compacted history.
	cmds := append([]persist.Record(nil), snap.Cmds...)
	folded := 0
	for _, rec := range tail {
		if rec.Seq <= uint64(len(snap.Cmds)) {
			continue
		}
		cmds = append(cmds, rec)
		folded++
	}
	full := &persist.Snapshot{Boot: snap.Boot, Cmds: cmds}
	o, hctl, err := replaySnapshot(full)
	if err != nil {
		return err
	}
	full.State = persist.CaptureState(o, hctl)
	if _, err := store.WriteSnapshot(full); err != nil {
		return err
	}
	wal, err := store.AppendWAL(1, uint64(len(full.Cmds)))
	if err != nil {
		return err
	}
	defer wal.Close()
	if err := wal.Reset(); err != nil {
		return err
	}
	fmt.Fprintf(w, "compacted: snapshot now holds %d commands (folded %d wal records), wal reset\n",
		len(full.Cmds), folded)
	return nil
}

// replaySnapshot rebuilds a control plane from an apiserver snapshot's
// bootstrap and runs its command history forward.
func replaySnapshot(snap *persist.Snapshot) (*k8s.Orchestrator, *harvest.Controller, error) {
	sched, err := experiments.SchedulerByName(snap.Boot.Scheduler)
	if err != nil {
		return nil, nil, err
	}
	return persist.Replay(snap.Boot, sched, snap.Cmds)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
