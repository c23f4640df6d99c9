package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// profileShares attributes the samples of gzipped pprof CPU profiles to
// layers by the Go package of each sample's leaf frame. It returns the
// sample count per layer (keys of selfFracLayers), the count of scheduler
// samples (the runtime parking, waking or finding goroutines: the
// cluster's window barrier and channel hand-offs) and the total.
func profileShares(profiles [][]byte) (byLayer map[string]int64, sched, total int64, err error) {
	byLayer = make(map[string]int64)
	for _, p := range profiles {
		samples, err := decodeProfile(p)
		if err != nil {
			return nil, 0, 0, err
		}
		for _, s := range samples {
			if len(s.stack) == 0 {
				continue
			}
			byLayer[layerOf(s.stack[0])] += s.count
			total += s.count
			if isSched(s.stack) {
				sched += s.count
			}
		}
	}
	return byLayer, sched, total, nil
}

// layerOf maps a function symbol to its layer.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 { // generic type arguments
		pkg = pkg[:i]
	}
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal"):
		return "runtime"
	case !strings.HasPrefix(pkg, "csbsim/internal/"):
		return "other"
	}
	switch rest := strings.TrimPrefix(pkg, "csbsim/internal/"); {
	case rest == "cluster/loadgen":
		return "loadgen"
	case rest == "cluster/ctrace", rest == "obs", strings.HasPrefix(rest, "obs/"), rest == "trace":
		return "obs"
	case rest == "cpu", rest == "uncbuf", rest == "core", rest == "cache", rest == "bus",
		rest == "mem", rest == "device", rest == "cluster", rest == "isa", rest == "sim",
		rest == "asm", rest == "bench":
		return rest
	}
	return "other"
}

// schedFrames are the runtime functions on the stack of a goroutine being
// parked, woken or looked for.
var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.goready": true, "runtime.ready": true, "runtime.chanrecv": true,
	"runtime.chansend": true, "runtime.selectgo": true, "runtime.notesleep": true,
	"runtime.notewakeup": true, "runtime.wakep": true, "runtime.newproc": true,
	"runtime.semacquire1": true, "runtime.semrelease1": true, "runtime.stopm": true,
	"runtime.startm": true,
}

// isSched reports whether a leaf-first stack is scheduler work: a runtime
// leaf under one of schedFrames.
func isSched(stack []string) bool {
	if layerOf(stack[0]) != "runtime" {
		return false
	}
	for _, f := range stack {
		if schedFrames[f] {
			return true
		}
	}
	return false
}

// profSample is one decoded sample: its count and its stack of function
// names, leaf first, inlined frames included.
type profSample struct {
	count int64
	stack []string
}

// decodeProfile reads the samples of a gzipped pprof profile
// (github.com/google/pprof/proto/profile.proto); only the fields this
// benchmark needs are decoded.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = walkFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			first := true
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
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
			err := walkFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && i < int64(len(strs)) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// walkFields calls fn for each field of a protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walkFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one varint v,
// or a packed payload b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
