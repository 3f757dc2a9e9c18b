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

// simLayers are the repository packages host CPU time is attributed to;
// layers adds the Go runtime and everything else.
var (
	simLayers = []string{
		"storage", "workload", "dodb", "msg", "hw", "sim", "ecl",
		"energy", "perfmodel", "obs",
	}
	layers = append(append([]string(nil), simLayers...), "runtime", "other")
)

// layerOf maps a profiled function name to its layer by the function's
// package: ecldb/internal/<layer>/... to <layer>, the runtime packages to
// runtime, and every other package (the standard library, internal
// helpers such as units and vtime, this command) to other.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if rest, ok := strings.CutPrefix(pkg, "ecldb/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		for _, l := range simLayers {
			if l == top {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// packageOf returns the import path of a fully qualified function name
// such as "ecldb/internal/obs/energyattr.(*Meter).Accrue": the text up to
// the first dot after the last slash, ignoring type arguments.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	start := strings.LastIndexByte(fn, '/') + 1
	if i := strings.IndexByte(fn[start:], '.'); i >= 0 {
		return fn[:start+i]
	}
	return fn
}

// selfSeconds decodes a gzipped runtime/pprof CPU profile and returns the
// CPU seconds of its samples grouped by the layer of each sample's leaf
// function (flat time), plus the number of samples.
func selfSeconds(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, 0, errors.New("cpu profile: no cpu sample type")
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range p.samples {
		if vi >= len(s.values) || len(s.locs) == 0 {
			continue
		}
		leaf := "?"
		if fnID := p.leafFunc[s.locs[0]]; fnID != 0 {
			leaf = p.str(p.funcName[fnID])
		}
		out[layerOf(leaf)] += float64(s.values[vi]) / 1e9
	}
	return out, len(p.samples), nil
}

// profile is the subset of profile.proto a flat per-package breakdown
// needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	leafFunc    map[uint64]uint64 // location id -> innermost function id
	funcName    map[uint64]int64  // function id -> name string index
	strings     []string
}

type sample struct {
	locs   []uint64
	values []uint64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6
	fValueTypeType     = 1
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{leafFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSampleType:
			var typ int64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fProfileSample:
			var s sample
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case fSampleLocation:
					return appendVarints(&s.locs, w, v, d)
				case fSampleValue:
					return appendVarints(&s.values, w, v, d)
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id, fn uint64
			err := eachField(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					// The first line is the innermost inlined frame.
					if fn != 0 {
						return nil
					}
					return eachField(d, func(n, _ int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.leafFunc[id] = fn
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileString:
			if wire != wireBytes {
				return errors.New("string table entry is not length-delimited")
			}
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in data.
func eachField(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
