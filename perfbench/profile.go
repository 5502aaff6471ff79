package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile samples the CPU while fn runs and returns each layer's share
// of the sampled time (see layerOf). Sampling needs no code inside the
// program, so it gives the self time of layers the benchmark cannot wrap
// in spans, such as bus and sim below farm.RunFleet.
func cpuProfile(fn func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return layerShares(buf.Bytes())
}

// layerOf maps a function name to the layer it belongs to, or "" for
// library code, which is charged to its nearest caller that has a layer.
func layerOf(fn string) string {
	for _, p := range []struct{ prefix, layer string }{
		{"repro/internal/bus.", "bus"},
		{"repro/internal/sim/", "sim"},
		{"repro/internal/gen", "gen"},
		{"repro/internal/devil/exec.", "exec"},
		{"repro/internal/devil/", "compiler"},
		{"repro/internal/core.", "compiler"},
		{"repro/internal/drivers/", "drivers"},
		{"repro/internal/farm.", "farm"},
		{"repro/internal/snap.", "snap"},
		{"repro/internal/obs.", "obs"},
		{"repro/internal/mutation.", "mutation"},
		{"repro/internal/minic.", "mutation"},
		{"main.", "bench"},
		{"runtime.", "runtime"},
		{"runtime/", "runtime"},
		{"internal/runtime/", "runtime"},
	} {
		if strings.HasPrefix(fn, p.prefix) {
			return p.layer
		}
	}
	return ""
}

// layerShares decodes a gzipped pprof CPU profile and charges each sample
// to the layer of its innermost frame that has one; a sample with no such
// frame counts as runtime.
func layerShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []int64
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, p)
				case 2:
					for _, u := range appendVarints(nil, v, p) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			})
			// A CPU profile's values are (samples, cpu nanoseconds).
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fs []uint64
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fs = append(fs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range samples {
		layer := "runtime"
	stack:
		for _, l := range s.locs {
			for _, f := range locs[l] {
				idx := funcs[f]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if got := layerOf(strs[idx]); got != "" {
					layer = got
					break stack
				}
			}
		}
		byLayer[layer] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("CPU profile holds no samples")
	}
	for l := range byLayer {
		byLayer[l] /= total
	}
	return byLayer, nil
}

// fields walks the protobuf message b, calling fn with each field number
// and either its varint value or its length-delimited payload.
func fields(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// it was encoded unpacked (payload nil), all of them when packed.
func appendVarints(dst []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(dst, v)
	}
	for len(payload) > 0 {
		u, n := binary.Uvarint(payload)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		payload = payload[n:]
	}
	return dst
}
