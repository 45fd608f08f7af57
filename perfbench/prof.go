package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// This file reduces a runtime/pprof CPU profile to per-package and
// per-function shares of sampled CPU time, with the standard library
// only: gzip plus a reader for the handful of profile.proto fields the
// reduction needs (github.com/google/pprof/proto/profile.proto).

// cpuProfile is the decoded subset of a profile.
type cpuProfile struct {
	valueIndex int // index of the CPU-time value in each sample
	samples    []profSample
	locations  map[uint64][]uint64 // location id -> function ids, leaf first
	funcs      map[uint64]string   // function id -> name
}

type profSample struct {
	locs   []uint64 // location ids, leaf first
	values []int64
}

// profShares is the reduction: self and cumulative shares of total CPU
// time, in percent, by function name, and self shares by package path.
type profShares struct {
	Total   int64
	SelfFn  map[string]float64
	CumFn   map[string]float64
	SelfPkg map[string]float64
}

func reduceProfileFile(path string) (*profShares, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p.reduce(), nil
}

// reduce attributes each sample's CPU time to its leaf frame (self) and,
// once per sample, to every distinct function on its stack (cumulative).
// Inlined calls count as frames of their own, as in pprof.
func (p *cpuProfile) reduce() *profShares {
	r := &profShares{SelfFn: map[string]float64{}, CumFn: map[string]float64{}, SelfPkg: map[string]float64{}}
	self := map[string]int64{}
	cum := map[string]int64{}
	for _, s := range p.samples {
		if p.valueIndex >= len(s.values) {
			continue
		}
		v := s.values[p.valueIndex]
		r.Total += v
		seen := map[string]bool{}
		for i, loc := range s.locs {
			for j, fid := range p.locations[loc] {
				name := p.funcs[fid]
				if i == 0 && j == 0 {
					self[name] += v
				}
				if !seen[name] {
					seen[name] = true
					cum[name] += v
				}
			}
		}
	}
	if r.Total == 0 {
		return r
	}
	pct := func(v int64) float64 { return 100 * float64(v) / float64(r.Total) }
	for name, v := range self {
		r.SelfFn[name] = pct(v)
		r.SelfPkg[funcPackage(name)] += pct(v)
	}
	for name, v := range cum {
		r.CumFn[name] = pct(v)
	}
	return r
}

// pkgSelf returns the self share of one of profPkgs: an iatsim/internal
// package by its last element, or the Go runtime including its internal
// sub-packages.
func (r *profShares) pkgSelf(short string) float64 {
	if short != "runtime" {
		return r.SelfPkg["iatsim/internal/"+short]
	}
	var t float64
	for pkg, v := range r.SelfPkg {
		if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
			t += v
		}
	}
	return t
}

// funcPackage returns the import path of a symbol name such as
// "iatsim/internal/cache.(*LLC).probe" or "runtime.mallocgc".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 { // generic instantiation
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// parseProfile decodes a (possibly gzipped) profile.proto message.
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
	p := &cpuProfile{locations: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	var sampleTypes []uint64 // string-table index of each value's type
	var strs []string
	funcNames := map[uint64]uint64{} // function id -> string index
	err := forEachField(data, func(f field) error {
		switch f.num {
		case 1: // sample_type
			return forEachField(f.bytes, func(g field) error {
				if g.num == 1 {
					sampleTypes = append(sampleTypes, g.varint)
				}
				return nil
			})
		case 2: // sample
			var s profSample
			err := forEachField(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					s.locs = g.appendUints(s.locs)
				case 2:
					for _, v := range g.appendUints(nil) {
						s.values = append(s.values, int64(v))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forEachField(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					id = g.varint
				case 4: // line
					return forEachField(g.bytes, func(h field) error {
						if h.num == 1 {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := forEachField(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					id = g.varint
				case 2:
					name = g.varint
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcNames {
		if si >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, si, len(strs))
		}
		p.funcs[id] = strs[si]
	}
	// A CPU profile's values are [samples/count, cpu/nanoseconds].
	p.valueIndex = len(sampleTypes) - 1
	for i, si := range sampleTypes {
		if si < uint64(len(strs)) && strs[si] == "cpu" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		return nil, errors.New("profile: no sample types")
	}
	return p, nil
}

// field is one decoded protobuf field: varint for wire type 0, bytes for
// wire type 2 (fixed-width types are skipped; profile.proto uses none).
type field struct {
	num    uint64
	wire   uint64
	varint uint64
	bytes  []byte
}

// appendUints appends a repeated integer field, packed or not.
func (f field) appendUints(dst []uint64) []uint64 {
	if f.wire == 0 {
		return append(dst, f.varint)
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := readVarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

func forEachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := readVarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := field{num: key >> 3, wire: key & 7}
		switch f.wire {
		case 0:
			if f.varint, n = readVarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := readVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// readVarint decodes a base-128 varint, returning n <= 0 when b ends
// early or the value overflows 64 bits.
func readVarint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
