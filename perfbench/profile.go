package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution. runtime/pprof writes a gzipped profile.proto;
// the standard library has no public reader, so the few messages needed
// (samples, locations, functions, the string table) are decoded here.

// profSample is one stack (leaf first, inlined frames expanded) and the CPU
// nanoseconds charged to it.
type profSample struct {
	stack []string
	ns    int64
}

// parseProfile decodes a gzipped pprof CPU profile.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
		nTypes    int
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, w, v, b)
				case 2:
					for _, u := range appendUints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 || len(s.values) != nTypes {
			return nil, errors.New("profile: sample values do not match the sample types")
		}
		ps := profSample{ns: s.values[len(s.values)-1]} // CPU profiles: [count, nanoseconds]
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcNames[fid]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fid, idx, len(strs))
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// walkFields calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Attribution buckets besides the repo's layers.
const (
	bucketGC    = "go.gc"
	bucketSched = "go.sched"
	bucketOther = "other"
)

// layerOfPackage folds repro/internal packages into the benchmark's layers:
// every ml/* trainer is "ml", and par and arena report with linalg.
var layerOfPackage = map[string]string{
	"simnet": "simnet", "rdd": "rdd", "ml": "ml", "ps": "ps", "dcv": "dcv",
	"linalg": "linalg", "par": "linalg", "arena": "linalg",
	"consistency": "consistency",
}

// gcFrames mark a stack as garbage-collector work, wherever it was charged.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.gcAssistAlloc1": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.gcDrain": true, "runtime.gcDrainN": true,
	"runtime.markroot": true, "runtime.gcMarkDone": true, "runtime.gcMarkTermination": true,
	"runtime.gcStart": true, "runtime.sweepone": true,
}

// attribute returns the bucket a stack is charged to: GC work first; then
// the innermost frame of a repro/internal package, by layer; then, for a
// stack wholly inside the runtime (channel handoff, park, futex), the
// scheduler; everything else is "other".
func attribute(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return bucketGC
		}
	}
	for _, fn := range stack {
		if pkg, ok := internalPackage(fn); ok {
			if l, ok := layerOfPackage[pkg]; ok {
				return l
			}
			return bucketOther
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "runtime/internal/") &&
			!strings.HasPrefix(fn, "internal/runtime/") {
			return bucketOther
		}
	}
	return bucketSched
}

// internalPackage extracts the first path element under repro/internal from
// a function name such as "repro/internal/ml/lr.Train.func1".
func internalPackage(fn string) (string, bool) {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// shares charges every sample to its bucket and returns each bucket's share
// of the profiled CPU time.
func shares(samples []profSample) map[string]float64 {
	byBucket := map[string]int64{}
	var total int64
	for _, s := range samples {
		byBucket[attribute(s.stack)] += s.ns
		total += s.ns
	}
	out := map[string]float64{}
	for b, ns := range byBucket {
		out[b] = ratio(float64(ns), float64(total))
	}
	return out
}
