package main

// A CPU profile decoder and layer attribution. runtime/pprof writes a
// gzipped profile.proto; the standard library has no reader for it, so this
// file decodes the handful of messages attribution needs straight from the
// protobuf wire format.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuProfile is the decoded subset of a profile.proto message.
type cpuProfile struct {
	sampleTypes []string // type name of each value column
	samples     []profSample
	// frames maps a location ID to its function names, innermost first
	// (inlined frames expand into several names).
	frames map[uint64][]string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
	labels map[string]string
}

// protoMsg walks one protobuf message's fields.
type protoMsg struct {
	b   []byte
	err error
}

func (m *protoMsg) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(m.b) == 0 {
			m.err = errors.New("profile: truncated varint")
			return 0
		}
		c := m.b[0]
		m.b = m.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	m.err = errors.New("profile: varint overflow")
	return 0
}

// next returns the next field's number and wire type, plus its payload for
// length-delimited fields or its value for varint fields. ok is false at the
// end of the message or on error.
func (m *protoMsg) next() (field int, wire int, val uint64, payload []byte, ok bool) {
	if len(m.b) == 0 || m.err != nil {
		return 0, 0, 0, nil, false
	}
	key := m.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val = m.varint()
	case 1:
		if len(m.b) < 8 {
			m.err = errors.New("profile: truncated fixed64")
			return 0, 0, 0, nil, false
		}
		m.b = m.b[8:]
	case 2:
		n := m.varint()
		if n > uint64(len(m.b)) {
			m.err = errors.New("profile: truncated field")
			return 0, 0, 0, nil, false
		}
		payload, m.b = m.b[:n], m.b[n:]
	case 5:
		if len(m.b) < 4 {
			m.err = errors.New("profile: truncated fixed32")
			return 0, 0, 0, nil, false
		}
		m.b = m.b[4:]
	default:
		m.err = fmt.Errorf("profile: unsupported wire type %d", wire)
		return 0, 0, 0, nil, false
	}
	return field, wire, val, payload, m.err == nil
}

// appendVarints decodes a repeated varint field in either encoding: one
// value per field (wire type 0) or packed into one payload (wire type 2).
func appendVarints(dst []uint64, wire int, val uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	p := protoMsg{b: payload}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst, p.err
}

// parseProfile decodes a gzipped (or raw) profile.proto.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	var (
		strs      []string
		typeIdx   []int64
		funcName  = map[uint64]int64{}    // function ID -> name string index
		locFuncs  = map[uint64][]uint64{} // location ID -> function IDs
		rawLabels [][][2]int64            // per sample: (key, str) string indices
	)
	p := &cpuProfile{frames: map[uint64][]string{}}
	m := protoMsg{b: data}
	for {
		field, _, _, payload, ok := m.next()
		if !ok {
			break
		}
		switch field {
		case 1: // sample_type: ValueType{type=1, unit=2}
			vt := protoMsg{b: payload}
			var typ int64
			for {
				f, _, v, _, ok := vt.next()
				if !ok {
					break
				}
				if f == 1 {
					typ = int64(v)
				}
			}
			typeIdx = append(typeIdx, typ)
		case 2: // sample: location_id=1, value=2, label=3
			sm := protoMsg{b: payload}
			var s profSample
			var vals []uint64
			var labels [][2]int64
			for {
				f, w, v, pl, ok := sm.next()
				if !ok {
					break
				}
				var err error
				switch f {
				case 1:
					s.locs, err = appendVarints(s.locs, w, v, pl)
				case 2:
					vals, err = appendVarints(vals, w, v, pl)
				case 3: // Label{key=1, str=2}
					lm := protoMsg{b: pl}
					var kv [2]int64
					for {
						lf, _, lv, _, ok := lm.next()
						if !ok {
							break
						}
						if lf == 1 || lf == 2 {
							kv[lf-1] = int64(lv)
						}
					}
					labels = append(labels, kv)
				}
				if err != nil {
					return nil, err
				}
			}
			if sm.err != nil {
				return nil, sm.err
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			rawLabels = append(rawLabels, labels)
		case 4: // location: id=1, line=4 (Line{function_id=1})
			lm := protoMsg{b: payload}
			var id uint64
			var fns []uint64
			for {
				f, _, v, pl, ok := lm.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4:
					ln := protoMsg{b: pl}
					for {
						lf, _, lv, _, ok := ln.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function: id=1, name=2
			fm := protoMsg{b: payload}
			var id uint64
			var name int64
			for {
				f, _, v, _, ok := fm.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcName[f])
		}
		p.frames[id] = names
	}
	for i, labels := range rawLabels {
		if len(labels) == 0 {
			continue
		}
		p.samples[i].labels = map[string]string{}
		for _, kv := range labels {
			p.samples[i].labels[str(kv[0])] = str(kv[1])
		}
	}
	return p, nil
}

// internalPrefix marks the frames of the program's own layers.
const internalPrefix = "kubeknots/internal/"

// layerLabel is the pprof label key the harness sets on goroutines that
// serve one layer without that layer's frames on their stacks (the HTTP
// connection goroutines of the API path).
const layerLabel = "layer"

// moduleOf returns the internal module a function belongs to, or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// isGC reports whether a frame is garbage-collector work.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || fn == "runtime.GC"
}

// Attribution buckets for CPU that is not a module's self time.
const (
	gcBucket           = "runtime.gc"
	unattributedBucket = "harness.unattributed"
)

// attribution is a profile folded onto the program's layers, in CPU
// nanoseconds.
type attribution struct {
	TotalNS int64
	// SelfNS charges every sample exactly once: GC work to gcBucket, then
	// the innermost internal module on the stack, then the goroutine's
	// layer label, and anything left to unattributedBucket.
	SelfNS map[string]int64
	// CumNS is the time spent under each entry point (keyed by the caller's
	// metric name); a sample counts once per entry point however deep the
	// recursion.
	CumNS map[string]int64
}

// attribute folds p onto modules and onto the given entry points (metric
// name -> fully qualified function name).
func attribute(p *cpuProfile, entries map[string]string) (attribution, error) {
	col := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return attribution{}, fmt.Errorf("profile: no cpu sample type in %v", p.sampleTypes)
	}
	byFunc := map[string][]string{} // function name -> metric names
	for metric, fn := range entries {
		byFunc[fn] = append(byFunc[fn], metric)
	}
	a := attribution{SelfNS: map[string]int64{}, CumNS: map[string]int64{}}
	for _, s := range p.samples {
		if col >= len(s.values) {
			continue
		}
		ns := s.values[col]
		a.TotalNS += ns
		bucket, gc := "", false
		seen := map[string]bool{}
		for _, loc := range s.locs {
			for _, fn := range p.frames[loc] {
				if isGC(fn) {
					gc = true
				}
				if bucket == "" {
					bucket = moduleOf(fn)
				}
				for _, metric := range byFunc[fn] {
					if !seen[metric] {
						seen[metric] = true
						a.CumNS[metric] += ns
					}
				}
			}
		}
		switch {
		case gc:
			bucket = gcBucket
		case bucket == "" && s.labels[layerLabel] != "":
			bucket = s.labels[layerLabel]
		case bucket == "":
			bucket = unattributedBucket
		}
		a.SelfNS[bucket] += ns
	}
	return a, nil
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
