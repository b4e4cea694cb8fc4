package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

// protoBuf is a minimal protobuf writer for hand-built test profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *protoBuf) uint(field int, v uint64) {
	p.varint(uint64(field)<<3 | 0)
	p.varint(v)
}

func (p *protoBuf) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(field int, vs ...uint64) {
	var q protoBuf
	for _, v := range vs {
		q.varint(v)
	}
	p.bytes(field, q.b)
}

// testProfile builds a gzipped CPU profile. Each stack lists function names
// leaf first; a name list joined by "|" is one location with inlined frames.
type testSample struct {
	stack []string
	ns    int64
	label string // value of the layer label, "" for none
}

func buildProfile(t *testing.T, samples []testSample) []byte {
	t.Helper()
	var p protoBuf
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m protoBuf
		m.uint(1, str(vt[0]))
		m.uint(2, str(vt[1]))
		p.bytes(1, m.b)
	}
	funcs := map[string]uint64{}
	locs := map[string]uint64{}
	var fnMsgs, locMsgs [][]byte
	fn := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		var m protoBuf
		m.uint(1, id)
		m.uint(2, str(name))
		fnMsgs = append(fnMsgs, m.b)
		return id
	}
	loc := func(frames string) uint64 {
		if id, ok := locs[frames]; ok {
			return id
		}
		id := uint64(len(locs) + 1)
		locs[frames] = id
		var m protoBuf
		m.uint(1, id)
		for _, f := range bytes.Split([]byte(frames), []byte("|")) {
			var line protoBuf
			line.uint(1, fn(string(f)))
			m.bytes(4, line.b)
		}
		locMsgs = append(locMsgs, m.b)
		return id
	}
	for i, s := range samples {
		var m protoBuf
		var ids []uint64
		for _, frames := range s.stack {
			ids = append(ids, loc(frames))
		}
		if i%2 == 0 {
			m.packed(1, ids...)
			m.packed(2, 1, uint64(s.ns))
		} else { // the unpacked encoding is legal too
			for _, id := range ids {
				m.uint(1, id)
			}
			m.uint(2, 1)
			m.uint(2, uint64(s.ns))
		}
		if s.label != "" {
			var l protoBuf
			l.uint(1, str(layerLabel))
			l.uint(2, str(s.label))
			m.bytes(3, l.b)
		}
		p.bytes(2, m.b)
	}
	for _, m := range locMsgs {
		p.bytes(4, m)
	}
	for _, m := range fnMsgs {
		p.bytes(5, m)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	w.Write(p.b)
	w.Close()
	return gz.Bytes()
}

func TestAttributeHandBuiltProfile(t *testing.T) {
	const (
		down = "kubeknots/internal/tsdb.(*DB).DownsampleInto"
		at   = "kubeknots/internal/tsdb.(*series).at"
		snap = "kubeknots/internal/knots.(*Aggregator).Snapshot"
		tick = "kubeknots/internal/k8s.(*Orchestrator).tick"
	)
	data := buildProfile(t, []testSample{
		// series.at inlined into DownsampleInto: one location, two frames.
		{stack: []string{at + "|" + down, snap, tick, "main.main"}, ns: 30},
		{stack: []string{"runtime.memmove", snap, tick}, ns: 10},
		// Recursion counts once toward the entry point.
		{stack: []string{snap, snap, tick}, ns: 4},
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, ns: 5},
		{stack: []string{"net/http.(*conn).serve"}, ns: 3, label: "api"},
		{stack: []string{"main.main"}, ns: 2},
	})
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	a, err := attribute(p, map[string]string{"tsdb.downsample_s": down, "knots.snapshot_s": snap})
	if err != nil {
		t.Fatal(err)
	}
	wantSelf := map[string]int64{"tsdb": 30, "knots": 14, gcBucket: 5, "api": 3, unattributedBucket: 2}
	for k, v := range wantSelf {
		if a.SelfNS[k] != v {
			t.Errorf("self[%s] = %d, want %d (all: %v)", k, a.SelfNS[k], v, a.SelfNS)
		}
	}
	if len(a.SelfNS) != len(wantSelf) {
		t.Errorf("self buckets %v, want %v", a.SelfNS, wantSelf)
	}
	if a.CumNS["tsdb.downsample_s"] != 30 || a.CumNS["knots.snapshot_s"] != 44 {
		t.Errorf("cum = %v, want downsample 30, snapshot 44", a.CumNS)
	}
	if a.TotalNS != 54 {
		t.Errorf("total = %d, want 54", a.TotalNS)
	}
}

func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	_ = x
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a, err := attribute(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalNS <= 0 {
		t.Fatalf("no CPU in a profile of a 300 ms busy loop: %+v", a)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"kubeknots/internal/tsdb.(*DB).Append":   "tsdb",
		"kubeknots/internal/obs/span.BuildSpans": "obs",
		"kubeknots/internal/sim.(*Engine).Run":   "sim",
		"kubeknots/perfbench.runGrid":            "",
		"runtime.mallocgc":                       "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
