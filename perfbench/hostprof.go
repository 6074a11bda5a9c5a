package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"strings"
)

// startProfile starts the traced run's CPU profile; the returned stop
// function ends it and returns the gzipped pprof bytes. With on false
// both are no-ops.
func startProfile(on bool) (stop func() []byte, err error) {
	if !on {
		return func() []byte { return nil }, nil
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}, nil
}

// setHostTime charges the run's CPU profile to layers and records each
// layer's share of the sampled CPU time, the sampled CPU seconds per
// pass, and the share charged to a named layer or the garbage
// collector. Without a profile it does nothing.
func (r *result) setHostTime(passes int) error {
	if r.profile == nil {
		return nil
	}
	layers, err := attribute(r.profile)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	var total float64
	for _, sec := range layers {
		total += sec
	}
	if total == 0 {
		return fmt.Errorf("CPU profile: no samples")
	}
	for layer, sec := range layers {
		name := "host." + layer + ".pct"
		if !declares(perLayer, name) {
			// A package of this module without its own metric.
			name = "host.other.pct"
		}
		r.set(name, "%", r.Metrics[name].Value+100*sec/total)
	}
	r.set("host.total_s", "s", total/float64(passes))
	r.set("host.named_pct", "%", 100-r.Metrics["host.other.pct"].Value)
	return nil
}

// layerOf names the layer a CPU sample is charged to, given its stack
// innermost frame first: the package of the innermost frame in this
// module ("mem", "service.cache", ...; the root minnow API package counts
// as "harness" and the benchmark's own code as "bench"). A sample with
// no such frame is "gc" when the garbage collector took it and "other"
// otherwise.
func layerOf(frames []string) string {
	for _, f := range frames {
		if l, ok := moduleLayer(f); ok {
			return l
		}
	}
	for _, f := range frames {
		for _, p := range []string{"runtime.gc", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject"} {
			if strings.HasPrefix(f, p) {
				return "gc"
			}
		}
	}
	return "other"
}

// moduleLayer maps a function name in this module to its layer.
func moduleLayer(fn string) (string, bool) {
	// Drop receiver and type-argument lists, which may name other packages.
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "main" || pkg == "minnow/perfbench":
		return "bench", true
	case pkg == "minnow":
		return "harness", true
	case strings.HasPrefix(pkg, "minnow/internal/"):
		return strings.ReplaceAll(strings.TrimPrefix(pkg, "minnow/internal/"), "/", "."), true
	}
	return "", false
}

// attribute decodes a gzipped pprof CPU profile and sums its CPU seconds
// by layerOf. Samples in the calibration loop are left out: it measures
// the host, not the program.
func attribute(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				frames = append(frames, p.str(p.funcName[fid]))
			}
		}
		if slices.Contains(frames, "main.calibrate") {
			continue
		}
		out[layerOf(frames)] += float64(p.nanos(s.values)) / 1e9
	}
	return out, nil
}

// The subset of the pprof protobuf schema (profile.proto) attribution
// reads. Field numbers are the schema's.
type pbSample struct {
	locs   []uint64 // location ids, leaf first
	values []int64
}

type pbProfile struct {
	samples  []pbSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
	period   int64
}

func (p *pbProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// nanos is a sample's CPU time: the cpu/nanoseconds value Go's profiler
// writes second, or the sample count times the period.
func (p *pbProfile) nanos(values []int64) int64 {
	switch {
	case len(values) >= 2:
		return values[1]
	case len(values) == 1:
		return values[0] * p.period
	}
	return 0
}

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte, wire int) error {
		switch num {
		case 2: // sample
			var s pbSample
			err := eachField(data, func(num int, v uint64, data []byte, wire int) error {
				switch num {
				case 1:
					return appendUints(&s.locs, v, data, wire)
				case 2:
					var u []uint64
					if err := appendUints(&u, v, data, wire); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num int, v uint64, data []byte, wire int) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num int, v uint64, _ []byte, _ int) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte, _ int) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		case 12: // period
			p.period = int64(v)
		}
		return nil
	})
	return p, err
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, v uint64, data []byte, wire int) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// eachField calls fn for every field of a protobuf message: v carries
// varint and fixed-width values, data the bytes of length-delimited ones.
func eachField(b []byte, fn func(num int, v uint64, data []byte, wire int) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("%w: wire type %d", errBadProto, wire)
		}
		if err := fn(num, v, data, wire); err != nil {
			return err
		}
	}
	return nil
}
