package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes CPU-profile samples to simulator layers by
// function name. Each sample goes to the innermost frame on its stack
// that belongs to a layer; frames of helpers shared by several layers
// (runtime, standard library, small value types) take the layer of
// their nearest caller that has one. Samples with no layer frame at all
// (the garbage collector's background workers, the harness itself) are
// reported as unattributed.

// layerNames lists the layers in report order.
var layerNames = []string{
	"serve.route", "serve.controller", "serve.engine", "serve.schedule",
	"serve.apply", "serve.prefixcache", "serve.result", "kvcache", "perf",
	"obs", "conc",
}

const servePkg = "repro/internal/serve."

// packageLayers maps whole packages to a layer.
var packageLayers = []struct{ prefix, layer string }{
	{"repro/internal/kvcache.", "kvcache"},
	{"repro/internal/perf.", "perf"},
	{"repro/internal/obs.", "obs"},
	{"repro/internal/conc.", "conc"},
}

// serveLayers maps functions of the serve package, named without the
// package path and receiver punctuation ("Engine.schedule",
// "routeTrace"), to a layer. A key matches the function itself and any
// closure inside it. The first matching entry wins; an empty layer means
// the frame inherits its caller's. Serve functions matching no entry
// belong to serve.controller.
var serveLayers = []struct{ key, layer string }{
	{"Engine.schedule", "serve.schedule"},
	{"Engine.shedPass", "serve.schedule"},
	{"Engine.estFirstToken", "serve.schedule"},
	{"Engine.preemptAt", "serve.schedule"},
	{"Engine.victimAfter", "serve.schedule"},
	{"Engine.orderWaiting", "serve.schedule"},
	{"Engine.orderRunning", "serve.schedule"},
	{"Engine.atRisk", "serve.schedule"},
	{"Engine.watermark", "serve.schedule"},
	{"Engine.preemptForUrgent", "serve.schedule"},
	{"Engine.canAdmit", "serve.schedule"},
	{"Engine.takeCloudShed", "serve.schedule"},
	{"Engine.refuseCloudShed", "serve.schedule"},
	{"Engine.price", "perf"},
	{"Engine.parFor", "perf"},
	{"batchPlan.shape", "perf"},
	{"Engine.apply", "serve.apply"},
	{"Engine", "serve.engine"},
	{"seq", ""},
	{"waitQueue", ""},
	{"batchPlan", ""},
	{"RequestMetrics", ""},
	{"engineTap", "obs"},
	{"lruCache", "serve.prefixcache"},
	{"sharedTier", "serve.prefixcache"},
	{"routeTrace", "serve.route"},
	{"fleetState.route", "serve.route"},
	{"roundRobin", "serve.route"},
	{"leastOutstanding", "serve.route"},
	{"joinShortestKV", "serve.route"},
	{"liveLeastLoaded", "serve.route"},
	{"affinity", "serve.route"},
	{"cacheAware", "serve.route"},
	{"rendezvousScore", "serve.route"},
	{"replicaIdentity", "serve.route"},
	{"fnvHash", "serve.route"},
	{"nearestRegion", "serve.route"},
	{"leastLoadedGlobal", "serve.route"},
	{"SpillOverRouter", "serve.route"},
	{"CloudOverflowRouter", "serve.route"},
	{"buildResult", "serve.result"},
	{"Geo.buildGeoResult", "serve.result"},
	{"fleetState.finish", "serve.result"},
	{"Result", "serve.result"},
}

// layerOf returns the layer a function belongs to, or "" when it
// inherits its caller's.
func layerOf(fn string) string {
	for _, p := range packageLayers {
		if strings.HasPrefix(fn, p.prefix) {
			return p.layer
		}
	}
	if !strings.HasPrefix(fn, servePkg) {
		return ""
	}
	name := strings.NewReplacer("(*", "", ")", "").Replace(fn[len(servePkg):])
	for _, l := range serveLayers {
		if name == l.key || strings.HasPrefix(name, l.key+".") {
			return l.layer
		}
	}
	return "serve.controller"
}

// cpuProfile is the part of a pprof CPU profile the attribution needs:
// each sample's stack as function names, leaf first, with its count.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// layerSamples adds each sample's count to its innermost layer (key ""
// for samples with none).
func (p *cpuProfile) layerSamples(into map[string]int64) {
	for i, stack := range p.stacks {
		layer := ""
		for _, fn := range stack {
			if layer = layerOf(fn); layer != "" {
				break
			}
		}
		into[layer] += p.counts[i]
	}
}

// parseProfile decodes a gzip-compressed pprof CPU profile as written
// by runtime/pprof. Only the fields the attribution reads are decoded.
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost inlined first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && i < int64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the top-level fields of one protobuf message, calling f
// with the field number and either the varint value or the
// length-delimited bytes. Fixed-width fields are skipped.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
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
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// it arrived unpacked, every value of the packed payload otherwise.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// varint decodes one base-128 varint, returning its length (0 when b is
// truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
