package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory: one per public call the
// benchmark makes into a layer, with the span that caused it. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	prof  bytes.Buffer
	cpuMS map[string]float64 // folded CPU profile of every profiled section so far
}

type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0)})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its wall time in seconds, traced
// or not.
func (t *tracer) timed(name string, parent int, f func()) float64 {
	id := t.begin(name, parent)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d.Seconds()
}

// durations returns the named spans' durations in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return out
}

func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) startProfile() {
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
	}
}

// stopProfile ends the CPU profile and folds it by module: each sample's
// CPU time goes to the innermost frame of an internal/ package; samples
// with no such frame (runtime, the benchmark's own code, net/http
// outside a handler) go to "runtime". It returns the sum over every
// section profiled so far, in milliseconds.
func (t *tracer) stopProfile() (map[string]float64, error) {
	pprof.StopCPUProfile()
	folded, err := foldProfile(t.prof.Bytes())
	if err != nil {
		return nil, err
	}
	if t.cpuMS == nil {
		t.cpuMS = map[string]float64{}
	}
	for m, ms := range folded {
		t.cpuMS[m] += ms
	}
	return t.cpuMS, nil
}

const internalPrefix = "rdnsprivacy/internal/"

func moduleOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// foldProfile decodes a gzipped pprof protobuf (just the fields it needs:
// samples, locations, functions, the string table) and folds it.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function -> string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		mod := "runtime"
	walk:
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				si := fnName[fn]
				if si < 0 || int(si) >= len(strs) {
					continue
				}
				if m, ok := moduleOf(strs[si]); ok {
					mod = m
					break walk
				}
			}
		}
		out[mod] += float64(s.vals[1]) / 1e6
	}
	return out, nil
}

// appendPacked appends a repeated varint field, packed (b) or not (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// uvarint is binary.Uvarint: n == 0 on a short buffer, n < 0 on overflow.
var uvarint = binary.Uvarint
