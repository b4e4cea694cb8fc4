package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the end-to-end golden files")

// e2eRun is one fixed-seed kubeknots invocation's complete artifact set.
type e2eRun struct {
	tables   []byte // stdout: fig9 + fig10a tables
	timeline []byte // -timeline-out Chrome trace_event JSON
	spans    []byte // -spans-out causal pod-lifecycle span JSONL
}

// runCLI executes kubeknots with args through the real CLI path and
// returns its stdout.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	return stdout.Bytes()
}

// runE2E executes the pinned end-to-end scenario — seed 3, three simulated
// seconds, fig9 and fig10a with span and timeline exports — through the
// real CLI path. Seed 3 is chosen so the pending queue drains within the
// horizon: a permanently SLO-rejected pod would otherwise get a sched.eval
// span every 10 ms round and bloat the golden spans from kilobytes to
// megabytes.
func runE2E(t *testing.T) e2eRun {
	t.Helper()
	tmp := t.TempDir()
	timelinePath := filepath.Join(tmp, "timeline.json")
	spansPath := filepath.Join(tmp, "spans.jsonl")
	tables := runCLI(t,
		"-parallel", "1",
		"-seed", "3",
		"-horizon", "3s",
		"-timeline-out", timelinePath,
		"-spans-out", spansPath,
		"fig9", "fig10a",
	)
	readFile := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return e2eRun{tables: tables, timeline: readFile(timelinePath), spans: readFile(spansPath)}
}

// runMoreTables executes the second pinned scenario, tables only: the
// chaos relaunch path, the DL policies behind table4 and fig12, and the
// CBP/PP latency-critical margin in the ablations, none of which the
// three-second fig9/fig10a scenario reaches.
func runMoreTables(t *testing.T) []byte {
	t.Helper()
	return runCLI(t,
		"-parallel", "1",
		"-seed", "3",
		"-horizon", "2m",
		"-dlscale", "small",
		"chaos", "table4", "fig12a", "fig12b", "ablations",
	)
}

// goldenFiles maps artifact names to their committed golden paths.
func goldenFiles(r e2eRun, moreTables []byte) map[string][]byte {
	return map[string][]byte{
		filepath.Join("testdata", "e2e_tables.golden.txt"):      r.tables,
		filepath.Join("testdata", "e2e_timeline.golden.json"):   r.timeline,
		filepath.Join("testdata", "e2e_spans.golden.jsonl"):     r.spans,
		filepath.Join("testdata", "e2e_more_tables.golden.txt"): moreTables,
	}
}

// firstDiff locates the first differing byte and returns a context snippet
// of both sides, so a golden mismatch is diagnosable from the test log.
func firstDiff(want, got []byte) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	i := 0
	for i < n && want[i] == got[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) []byte {
		hi := i + 80
		if hi > len(b) {
			hi = len(b)
		}
		if lo > len(b) {
			return nil
		}
		return b[lo:hi]
	}
	return fmt.Sprintf("first divergence at byte %d:\n want …%q…\n  got …%q…", i, clip(want), clip(got))
}

// TestE2EGolden compares the pinned scenarios' key artifacts byte-for-byte
// against the committed golden files. Run with -update to regenerate them
// after an intentional behaviour change.
func TestE2EGolden(t *testing.T) {
	files := goldenFiles(runE2E(t), runMoreTables(t))
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for path, data := range files {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Log("golden files updated")
		return
	}
	for path, got := range files {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./cmd/kubeknots -run TestE2EGolden -update` to create golden files)", err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s diverged from golden (%d vs %d bytes)\n%s\nrun with -update if the change is intentional",
				path, len(got), len(want), firstDiff(want, got))
		}
	}
}
