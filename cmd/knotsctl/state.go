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
	} else if recs != nil || fileExists(store.WALPath()) {
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

// recovery is an apiserver state dir recovered offline: its manager, the
// replayed control plane, and the command counts of the snapshot and of the
// whole replay.
type recovery struct {
	mgr      *persist.Manager
	o        *k8s.Orchestrator
	hctl     *harvest.Controller
	snapCmds int
	replayed int
}

// recoverDir recovers dir exactly as the daemon does: persist.Open refuses
// a foreign bootstrap or a WAL gap and skips records the snapshot already
// absorbed, and Manager.Replay re-executes the snapshot's commands,
// byte-verifies the result against the snapshot's state and applies the
// WAL tail. It writes nothing to dir.
func recoverDir(dir, verb string) (*recovery, error) {
	store, err := persist.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	snap, err := store.LoadSnapshot()
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, fmt.Errorf("no snapshot in %s", dir)
	}
	if snap.Boot.Kind != "apiserver" {
		return nil, fmt.Errorf("%s supports apiserver state (this dir is %q); its snapshot has no replayable command history", verb, snap.Boot.Kind)
	}
	sched, err := experiments.SchedulerByName(snap.Boot.Scheduler)
	if err != nil {
		return nil, err
	}
	mgr, err := persist.Open(dir, snap.Boot)
	if err != nil {
		return nil, err
	}
	o, hctl, err := persist.Rebuild(snap.Boot, sched)
	if err != nil {
		return nil, err
	}
	n, err := mgr.Replay(o, hctl, nil)
	if err != nil {
		return nil, fmt.Errorf("verification FAILED: %w", err)
	}
	return &recovery{mgr: mgr, o: o, hctl: hctl, snapCmds: len(snap.Cmds), replayed: n}, nil
}

// stateVerify recovers the dir the way the daemon would — the same
// determinism check recovery performs, runnable offline — without writing
// to it.
func stateVerify(dir string, w io.Writer) error {
	r, err := recoverDir(dir, "verify")
	if err != nil {
		return err
	}
	st := r.mgr.StatsSnapshot()
	tail := ""
	if st.RecoveredTorn {
		tail = " (torn tail dropped)"
	}
	if st.RecoveredSkipped > 0 {
		tail += fmt.Sprintf(" (%d already absorbed by the snapshot)", st.RecoveredSkipped)
	}
	fmt.Fprintf(w, "verified: %d snapshot commands byte-identical, %d wal records apply%s\n",
		r.snapCmds, r.replayed-r.snapCmds, tail)
	return nil
}

// stateCompact folds the WAL tail into the snapshot: recover as the daemon
// does, then journal and write one fresh snapshot holding the full history,
// which resets the WAL. The next recovery replays from the snapshot alone.
// A dir that fails recovery is left untouched.
func stateCompact(dir string, w io.Writer) error {
	r, err := recoverDir(dir, "compact")
	if err != nil {
		return err
	}
	if r.mgr.StatsSnapshot().RecoveredTorn {
		fmt.Fprintln(w, "warning: dropping torn wal tail")
	}
	if err := r.mgr.StartJournal(); err != nil {
		return err
	}
	if err := r.mgr.WriteSnapshot(persist.CaptureState(r.o, r.hctl)); err != nil {
		r.mgr.Close()
		return err
	}
	if err := r.mgr.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "compacted: snapshot now holds %d commands (folded %d wal records), wal reset\n",
		r.replayed, r.replayed-r.snapCmds)
	return nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
