package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// The CPU profile is attributed to layers by charging each sample to the
// innermost frame of repository code: an internal/<pkg> frame charges
// layer <pkg>, so standard-library work (sorting, heaps, allocation and
// clearing) counts toward the layer that called it. A sample whose
// innermost repository frame is the facade or the benchmark itself is
// unattributed; a sample with no repository frame at all is garbage
// collection and other runtime background work.

// shareLayers are the layers host_share reports, besides gc and
// unattributed. Samples in other internal packages count as unattributed.
var shareLayers = []string{
	"sim", "fabric", "verbs", "dpa", "core", "coll", "registry", "workload",
	"scenario", "sweep", "snap", "harness", "cluster", "topology", "bitmap", "telemetry",
}

const internalPrefix = "repro/internal/"

// layerOf returns the layer a function name belongs to, "" for code
// outside the repository and "unattributed" for repository code outside
// the named layers.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, internalPrefix):
		pkg := fn[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range shareLayers {
			if l == pkg {
				return l
			}
		}
		return "unattributed"
	case strings.HasPrefix(fn, "repro.") || strings.HasPrefix(fn, "main."):
		return "unattributed"
	}
	return ""
}

// attributeProfile reads a runtime/pprof CPU profile and returns each
// layer's share of the sampled CPU time, plus "gc" and "unattributed".
// It fails when the shares do not sum to 1 within 0.01.
func attributeProfile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	vi := p.valueIndex("cpu")
	if vi < 0 {
		return nil, fmt.Errorf("profile %s: no cpu sample type", path)
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, fmt.Errorf("profile %s: sample with %d values", path, len(s.values))
		}
		v := s.values[vi]
		total += v
		byLayer[p.sampleLayer(s)] += v
	}
	if total == 0 {
		return nil, errors.New("profile holds no CPU samples")
	}
	shares := map[string]float64{}
	sum := 0.0
	for _, l := range append(append([]string(nil), shareLayers...), "gc", "unattributed") {
		shares[l] = float64(byLayer[l]) / float64(total)
		sum += shares[l]
	}
	if math.Abs(sum-1) > 0.01 {
		return nil, fmt.Errorf("host shares sum to %.4f, not 1", sum)
	}
	return shares, nil
}

// sampleLayer walks the stack from the leaf, inlined frames innermost
// first, to the first repository frame.
func (p *profile) sampleLayer(s sample) string {
	for _, id := range s.locations {
		for _, fid := range p.locations[id] {
			if l := layerOf(p.functions[fid]); l != "" {
				return l
			}
		}
	}
	return "gc"
}

// profile is the part of the pprof protobuf the attribution needs.
type profile struct {
	sampleTypes []int64             // string-table index of each value's type
	samples     []sample            //
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]string   // function id -> name
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) valueIndex(typ string) int {
	for i, t := range p.sampleTypes {
		if t >= 0 && int(t) < len(p.strings) && p.strings[t] == typ {
			return i
		}
	}
	return -1
}

// decodeProfile decodes the fields of perftools.profiles.Profile that
// attribution reads: sample_type (1), sample (2), location (4), function
// (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	funcNames := map[uint64]int64{}
	err := eachField(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 1:
			return eachField(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2:
			var s sample
			err := eachField(data, func(n, wt int, v uint64, d []byte) error {
				switch n {
				case 1:
					return eachVarint(wt, v, d, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachVarint(wt, v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
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
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcNames {
		if si < 0 || int(si) >= len(p.strings) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, si, len(p.strings))
		}
		p.functions[id] = p.strings[si]
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: v carries a
// varint or fixed value, data a length-delimited payload.
func eachField(b []byte, fn func(num, wireType int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("malformed field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("malformed varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint handles a repeated scalar field, packed (wire type 2) or not.
func eachVarint(wt int, v uint64, data []byte, fn func(uint64)) error {
	if wt == 0 {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("malformed packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
