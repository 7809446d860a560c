package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares folds a runtime/pprof CPU profile into per-package shares of
// the sampled CPU time. Each sample goes to the leaf-most frame that
// belongs to a package of this module, so allocation and GC assist work a
// layer causes counts against that layer; samples with no such frame (the
// background collector, the scheduler, the benchmark's own loop) count as
// "runtime". Only samples carrying the label phase=loop are folded.
//
// The decoder reads just the profile.proto fields it needs, so the
// benchmark depends on the standard library alone.
func cpuShares(gz []byte) (map[string]float64, error) {
	if len(gz) == 0 {
		return nil, errors.New("empty cpu profile")
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	pkgOf := func(fn uint64) string { return modulePackage(p.str(p.funcName[fn])) }
	byPkg := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if p.label(s, "phase") != "loop" || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		total += v
		pkg := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if name := pkgOf(fn); name != "" {
					pkg = name
					break frames
				}
			}
		}
		byPkg[pkg] += v
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no loop samples")
	}
	out := map[string]float64{}
	for k, v := range byPkg {
		out[k] = float64(v) / float64(total)
	}
	return out, nil
}

// modulePackage maps a symbol such as
// "lifeguard/internal/bgp.(*Speaker).flush" to its package's last path
// element ("bgp"), or "" for a symbol outside the module under test.
func modulePackage(sym string) string {
	var rest string
	switch {
	case strings.HasPrefix(sym, "lifeguard/"):
		rest = sym[strings.LastIndexByte(sym, '/')+1:]
	case strings.HasPrefix(sym, "lifeguard."):
		return "lifeguard"
	default:
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

type pbSample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // (key, value) string-table indexes
}

type pbProfile struct {
	strings  []string
	samples  []pbSample
	locFuncs map[uint64][]uint64 // location id -> function ids, leaf first
	funcName map[uint64]int64    // function id -> string-table index
}

// label returns the string value of sample s's label key, or "".
func (p *pbProfile) label(s pbSample, key string) string {
	for _, kv := range s.labels {
		if p.str(kv[0]) == key {
			return p.str(kv[1])
		}
	}
	return ""
}

func (p *pbProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// pbReader walks protobuf wire format.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// next returns the next field's number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (r *pbReader) next() (field int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return field, wire, v, payload, err
}

// uints appends a repeated integer field, packed (wire type 2) or not.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := pbReader{b}
	for len(r.b) > 0 {
		field, wire, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2:
			s, err := decodeSample(payload)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4:
			if err := p.decodeLocation(payload); err != nil {
				return nil, err
			}
		case 5:
			if err := p.decodeFunction(payload); err != nil {
				return nil, err
			}
		case 6:
			if wire != 2 {
				return nil, errors.New("string table entry is not bytes")
			}
			p.strings = append(p.strings, string(payload))
		}
	}
	return p, nil
}

func decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	r := pbReader{b}
	for len(r.b) > 0 {
		field, wire, v, payload, err := r.next()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			if s.locs, err = uints(s.locs, wire, v, payload); err != nil {
				return s, err
			}
		case 2:
			var vals []uint64
			if vals, err = uints(nil, wire, v, payload); err != nil {
				return s, err
			}
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
		case 3:
			lr := pbReader{payload}
			var key, str int64
			for len(lr.b) > 0 {
				f, _, lv, _, err := lr.next()
				if err != nil {
					return s, err
				}
				switch f {
				case 1:
					key = int64(lv)
				case 2:
					str = int64(lv)
				}
			}
			s.labels = append(s.labels, [2]int64{key, str})
		}
	}
	return s, nil
}

func (p *pbProfile) decodeLocation(b []byte) error {
	var id uint64
	var fns []uint64
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, v, payload, err := r.next()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			id = v
		case 4:
			lr := pbReader{payload}
			for len(lr.b) > 0 {
				f, _, lv, _, err := lr.next()
				if err != nil {
					return err
				}
				if f == 1 {
					fns = append(fns, lv)
				}
			}
		}
	}
	p.locFuncs[id] = fns
	return nil
}

func (p *pbProfile) decodeFunction(b []byte) error {
	var id uint64
	var name int64
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, v, _, err := r.next()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	p.funcName[id] = name
	return nil
}
