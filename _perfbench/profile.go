package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Modules the CPU profile is split into: the packages under internal/, the
// cts facade, the Go runtime (samples with no repository frame at all) and
// the benchmark itself. Anything else in the repository lands in "other".
var shareModules = []string{
	"bench", "campaign", "core", "cts", "experiment", "faultinject", "gcs", "hwclock", "obs",
	"order", "other", "replication", "rpc", "runtime", "sim", "simnet", "stats",
	"timeserve", "totem", "transport", "udptransport", "wire",
}

// moduleOf names the repository module a function belongs to, or "" for
// code outside the repository (standard library, runtime).
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "cts."):
		return "cts"
	case strings.HasPrefix(fn, "cts/internal/"):
		rest := fn[len("cts/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, m := range shareModules {
			if m == rest {
				return m
			}
		}
		return "other"
	}
	return ""
}

// cpuShares decodes a gzipped pprof CPU profile and returns each module's
// share of the sampled CPU time. Each sample goes to the innermost frame
// that belongs to the repository; samples with none go to "runtime".
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
	// Location id -> module of its innermost repository frame ("" if none).
	locMod := make(map[uint64]string, len(p.locs))
	for id, fns := range p.locs {
		for _, f := range fns { // innermost first
			if m := moduleOf(p.str(p.funcs[f])); m != "" {
				locMod[id] = m
				break
			}
		}
	}
	weight := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		mod := "runtime"
		for _, loc := range s.locs { // leaf first
			if m := locMod[loc]; m != "" {
				mod = m
				break
			}
		}
		weight[mod] += float64(s.value)
		total += float64(s.value)
	}
	out := make(map[string]float64, len(shareModules))
	for _, m := range shareModules {
		if total > 0 {
			out[m] = weight[m] / total
		} else {
			out[m] = 0
		}
	}
	return out, nil
}

// profile holds the parts of a pprof Profile message the shares need.
type profile struct {
	strings []string
	funcs   map[uint64]int64    // function id -> name string index
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	samples []sample
}

type sample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the protobuf wire format of
// github.com/google/pprof/proto/profile.proto, fields: sample=2,
// location=4, function=5, string_table=6.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{funcs: map[uint64]int64{}, locs: map[uint64][]uint64{}}
	err := eachField(b, func(num int, wt int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []int64
			err := eachField(sub, func(n, wt int, v uint64, sb []byte) error {
				switch n {
				case 1:
					return appendVarints(wt, v, sb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(wt, v, sb, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n, wt int, v uint64, sb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line{function_id=1}
					return eachField(sb, func(n, wt int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(n, wt int, v uint64, _ []byte) error {
				switch n {
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
			p.funcs[id] = name
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks the top-level fields of one protobuf message. Varint
// fields pass their value in v; length-delimited fields pass their bytes in
// sub.
func eachField(b []byte, fn func(num, wireType int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field, packed or not.
func appendVarints(wt int, v uint64, sub []byte, add func(uint64)) error {
	if wt == 0 {
		add(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errProto
		}
		add(x)
		sub = sub[n:]
	}
	return nil
}

// fillShares sets every cpu_share.<module> metric in v from a CPU profile.
func fillShares(prof []byte, v map[string]float64) {
	shares, err := cpuShares(prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	for _, m := range shareModules {
		v["cpu_share."+m] = shares[m]
	}
}
