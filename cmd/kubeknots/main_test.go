package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestRunErrorPaths drives run() through every flag-parsing and dispatch
// failure: each must exit 2, print a diagnostic to stderr, and write no
// table output.
func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of stderr
	}{
		{"no-args", nil, "usage: kubeknots"},
		{"unknown-flag", []string{"-bogus", "fig1"}, "flag provided but not defined"},
		{"bad-parallel", []string{"-parallel", "many", "fig1"}, "invalid value"},
		{"bad-seeds", []string{"-seeds", "1,x", "fig1"}, `bad seed "x"`},
		{"empty-seeds", []string{"-seeds", " , ", "fig1"}, "no seeds in"},
		{"bad-format", []string{"-format", "xml", "fig1"}, `unknown -format "xml"`},
		{"bad-dlscale", []string{"-dlscale", "smal", "fig1"}, `unknown -dlscale "smal"`},
		{"empty-dlscale", []string{"-dlscale", "", "fig1"}, `unknown -dlscale ""`},
		{"bad-tracescale", []string{"-tracescale", "ful", "fig1"}, `unknown -tracescale "ful"`},
		{"empty-tracescale", []string{"-tracescale", "", "fig1"}, `unknown -tracescale ""`},
		{"unknown-experiment", []string{"fig99"}, `unknown experiment "fig99"`},
		{"unknown-among-known", []string{"fig1", "nope"}, `unknown experiment "nope"`},
		{"bad-spans-out", []string{"-spans-out", "no-such-dir/spans.jsonl", "fig9"}, "-spans-out: open no-such-dir/spans.jsonl"},
		{"bad-timeline-out", []string{"-timeline-out", "no-such-dir/timeline.json", "fig9"}, "-timeline-out: open no-such-dir/timeline.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q missing %q", stderr.String(), tc.wantErr)
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout not empty on error: %q", stdout.String())
			}
		})
	}
}

// TestRunDispatch runs the cheap static experiments end to end through the
// real flag/sweep/emit path in every output format.
func TestRunDispatch(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantOut []string // substrings of stdout
	}{
		{"text", []string{"-parallel", "1", "fig1"}, []string{"fig1"}},
		{"json", []string{"-parallel", "1", "-format", "json", "fig1"}, []string{`"id"`, "fig1"}},
		{"csv", []string{"-parallel", "1", "-format", "csv", "fig1"}, []string{"util%", ","}},
		{"multi-experiment", []string{"-parallel", "1", "fig1", "fig4"}, []string{"fig1", "fig4"}},
		{"multi-seed", []string{"-parallel", "1", "-seeds", "2,3", "fig1"}, []string{"fig1"}},
		{"scales-accepted", []string{"-parallel", "1", "-dlscale", "small", "-tracescale", "full", "fig1"}, []string{"fig1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr.String())
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(stdout.String(), want) {
					t.Fatalf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
		})
	}
}

// TestRunStatsGoToStderr keeps the -stats report off stdout, where it would
// corrupt piped table output.
func TestRunStatsGoToStderr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-parallel", "1", "-stats", "fig1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "sweep:") {
		t.Fatalf("stderr missing sweep stats: %q", stderr.String())
	}
	if strings.Contains(stdout.String(), "sweep:") {
		t.Fatal("-stats leaked onto stdout")
	}
}

// TestHarvestFlagsInertWhenDisabled is the determinism satellite: harvest
// tuning flags ride along on every run spec, so with -harvest=false they
// must not change a single output byte.
func TestHarvestFlagsInertWhenDisabled(t *testing.T) {
	base := []string{"-parallel", "1", "-seed", "3", "-horizon", "3s"}
	var plain, tuned bytes.Buffer
	if code := run(append(base, "fig9"), &plain, &bytes.Buffer{}); code != 0 {
		t.Fatalf("plain run exit = %d", code)
	}
	tunedArgs := append([]string{"-harvest=false", "-watermark", "0.5", "-checkpoint-cost", "1s"}, base...)
	if code := run(append(tunedArgs, "fig9"), &tuned, &bytes.Buffer{}); code != 0 {
		t.Fatalf("tuned run exit = %d", code)
	}
	if plain.String() != tuned.String() {
		t.Fatalf("disabled harvest flags changed the output:\n--- plain ---\n%s--- tuned ---\n%s",
			plain.String(), tuned.String())
	}
}

// TestHarvestFlagValidation pins the usage-error exit code for a watermark
// outside (0, 1].
func TestHarvestFlagValidation(t *testing.T) {
	for _, wm := range []string{"0", "1.5", "-0.2"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-watermark", wm, "fig1"}, &stdout, &stderr); code != 2 {
			t.Fatalf("-watermark %s: exit = %d, want 2 (stderr: %s)", wm, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-watermark") {
			t.Fatalf("-watermark %s: stderr %q", wm, stderr.String())
		}
	}
}

// TestFigHarvestThroughCLI drives the new experiment family through the real
// flag path with the controller enabled.
func TestFigHarvestThroughCLI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-parallel", "1", "-horizon", "3s", "-harvest", "-watermark", "0.9", "fig-harvest"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"fig-harvest", "off", "evict", "resume"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

func TestParseSeeds(t *testing.T) {
	cases := []struct {
		in      string
		def     int64
		want    []int64
		wantErr bool
	}{
		{"", 7, []int64{7}, false},
		{"  ", 7, []int64{7}, false},
		{"1", 7, []int64{1}, false},
		{"1,2,3", 7, []int64{1, 2, 3}, false},
		{" 4 , 5 ", 7, []int64{4, 5}, false},
		{"1,,2", 7, []int64{1, 2}, false},
		{"-9", 7, []int64{-9}, false},
		{"a", 7, nil, true},
		{"1,b", 7, nil, true},
		{",", 7, nil, true},
	}
	for _, tc := range cases {
		got, err := parseSeeds(tc.in, tc.def)
		if (err != nil) != tc.wantErr {
			t.Fatalf("parseSeeds(%q): err = %v, wantErr %v", tc.in, err, tc.wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("parseSeeds(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
