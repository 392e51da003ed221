package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer attribution of a CPU profile. Each sample is charged to the
// innermost frame on its stack that belongs to the program
// (origin2000/internal/<pkg>, with apps/* folded into "apps") or to the
// benchmark itself ("bench"); a sample with neither goes to "go_runtime".
// Inlined frames count: a location's lines are walked innermost first.

// layerOf maps a function name to its layer, or "" for a frame outside the
// repository.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "origin2000/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// attributeProfile reads a gzipped pprof CPU profile and returns the
// sample count charged to each layer.
func attributeProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
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
	// Resolve each location to its innermost repository layer once.
	fnName := make(map[uint64]string, len(p.functions))
	for id, nameIdx := range p.functions {
		if nameIdx < 0 || int(nameIdx) >= len(p.strings) {
			return nil, errors.New("profile: function name out of range")
		}
		fnName[id] = p.strings[nameIdx]
	}
	locLayer := make(map[uint64]string, len(p.locations))
	for id, fns := range p.locations {
		for _, f := range fns {
			if l := layerOf(fnName[f]); l != "" {
				locLayer[id] = l
				break
			}
		}
	}
	samples := make(map[string]int64)
	for _, s := range p.samples {
		layer := "go_runtime"
		for _, loc := range s.locs {
			if l, ok := locLayer[loc]; ok {
				layer = l
				break
			}
		}
		samples[layer] += s.count
	}
	return samples, nil
}

// profile holds the parts of a pprof profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes the wire format of profile.proto: Profile.sample=2,
// location=4, function=5, string_table=6; Sample.location_id=1, value=2;
// Location.id=1, line=4; Line.function_id=1; Function.id=1, name=2.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s sample
			first := true
			err := fields(sub, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1:
					return varints(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2: // values: [samples count, cpu nanoseconds]
					return varints(v, packed, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(sub, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}

// varints yields a repeated integer field, which the encoder writes either
// as one varint per field (v) or packed into one length-delimited field.
func varints(v uint64, packed []byte, yield func(uint64)) error {
	if packed == nil {
		yield(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(x)
		packed = packed[n:]
	}
	return nil
}
