package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// spanLog keeps the benchmark's own spans in memory; writeFile emits them
// as a Chrome trace_event file at the end of the run. A nil *spanLog
// records nothing, which is how untraced runs leave tracing off.
type spanLog struct {
	spans []span
}

type span struct {
	name       string
	parent     int
	start, end time.Duration // since process start
}

// begin opens a span and returns its id (1-based; 0 means none).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{name: name, parent: parent, start: time.Since(procStart)})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].end = time.Since(procStart)
}

func (l *spanLog) writeFile(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(l.spans))
	for i, s := range l.spans {
		evs[i] = event{
			Name: s.name, Ph: "X",
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i + 1, "parent": s.parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// cpuBuckets are the layers the profiled run splits exclusive CPU into.
// "runtime" is the Go runtime and sync; "apps" includes package memory,
// the apps' data views; "tasking" includes package core, the polling
// service the task-aware libraries share; "other" is cluster and this
// benchmark.
var cpuBuckets = []string{
	"runtime", "vclock", "vsync", "fabric", "mpisim", "gaspisim", "tasking",
	"tampi", "tagaspi", "collectives", "obs", "apps", "other",
}

// bucketOf maps a symbol name to its cpuBuckets entry, or to "" for the
// rest of the standard library, whose time belongs to the calling layer.
func bucketOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "runtime" || pkg == "sync" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "sync/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/sync":
		return "runtime"
	case pkg == "repro/internal/memory" || strings.HasPrefix(pkg, "repro/internal/apps/"):
		return "apps"
	case pkg == "repro/internal/obs" || strings.HasPrefix(pkg, "repro/internal/obs/"):
		return "obs"
	case pkg == "repro/internal/core":
		return "tasking"
	case pkg == "main" || strings.HasPrefix(pkg, "repro/"):
		switch l := strings.TrimPrefix(pkg, "repro/internal/"); l {
		case "vclock", "vsync", "fabric", "mpisim", "gaspisim", "tasking", "tampi", "tagaspi", "collectives":
			return l
		}
		return "other"
	}
	return ""
}

// packageOf extracts the import path from a Go symbol name such as
// "repro/internal/vsync.(*Queue[...]).PopAll" or "runtime.mallocgc".
func packageOf(fn string) string {
	fn = strings.TrimPrefix(fn, "type:.eq.")
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares decodes a gzipped pprof CPU profile and returns each bucket's
// share, in percent, of the sampled CPU time. A sample counts towards the
// layer of its leaf frame; a leaf in the standard library outside the
// runtime (encoding/binary under memory.F64.At, say) counts towards the
// nearest caller that has a layer.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byBucket := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		byBucket[p.leafBucket(s.locs)] += v
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = 100 * byBucket[b] / total
		}
	}
	return out, nil
}

// leafBucket walks a stack from the leaf, inlined frames included, to the
// first frame that has a layer.
func (p *profile) leafBucket(locs []uint64) string {
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			if b := bucketOf(p.strings[p.funcNames[fn]]); b != "" {
				return b
			}
		}
	}
	return "other"
}

// profile holds the parts of a profile.proto message cpuShares needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, leaf first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the profile.proto fields sample (2), location (4),
// function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := pbFields(b, func(f int, v uint64, data []byte) error {
		switch f {
		case 2:
			var s sample
			err := pbFields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					return pbRepeated(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(data, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, n := range p.funcNames {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

// pbFields walks the fields of one protobuf message. For varint fields fn
// gets the value; for length-delimited fields, the bytes (data != nil).
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = pbVarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated handles a repeated varint field in either encoding: one value
// per field (data == nil) or packed into one length-delimited field.
func pbRepeated(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}

// pbVarint decodes one base-128 varint, returning the byte count (0 when
// truncated).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
