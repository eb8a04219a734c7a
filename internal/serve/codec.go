package serve

import (
	"encoding/json"
	"reflect"

	"dpbp/internal/cpu"
	"dpbp/internal/runcache"
)

// ResultCodec teaches the disk tier to persist timing-run results — the
// value type behind every "cpu" cache key and the bulk of a warm sweep's
// cost. cpu.Result is plain exported scalars and integer stats structs,
// so a JSON round trip reproduces it exactly (uint64 fields decode from
// the literal digits, float64 via shortest-representation round-trip);
// the restart test in this package pins the resulting documents
// byte-identical. Profiles and overlays hold unexported state
// and stay memory-only: after a restart they recompute, then every
// timing run they feed hits this codec's entries.
func ResultCodec() runcache.Codec {
	return runcache.Codec{
		Type: "cpu.Result",
		Marshal: func(v any) ([]byte, bool) {
			r, ok := v.(*cpu.Result)
			if !ok {
				return nil, false
			}
			b, err := json.Marshal(r)
			if err != nil {
				return nil, false
			}
			return b, true
		},
		Unmarshal: func(data []byte) (any, error) {
			r := new(cpu.Result)
			if err := json.Unmarshal(data, r); err != nil {
				return nil, err
			}
			return r, nil
		},
	}
}

// approxSize estimates a cached value's resident bytes for the cache's
// MaxBytes bound: struct scalars at their kind sizes, slices and strings
// at length times element size, pointers followed. It undercounts maps
// and interfaces (flat 64 bytes each) — the bound is a pressure valve,
// not an accountant — but it scales with the dominant weights (overlay
// prediction slices, result structs), which is what keeps daemon RSS
// proportional to the configured cap.
func approxSize(v any) int64 {
	return sizeOfValue(reflect.ValueOf(v), 0)
}

// sizeOfValue walks v to a bounded depth (cycles via pointers are cut
// off rather than chased).
func sizeOfValue(v reflect.Value, depth int) int64 {
	const maxDepth = 8
	if !v.IsValid() || depth > maxDepth {
		return 0
	}
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			return 8
		}
		if v.Kind() == reflect.Interface {
			return 8 + sizeOfValue(v.Elem(), depth+1)
		}
		return 8 + sizeOfValue(v.Elem(), depth+1)
	case reflect.Struct:
		var n int64
		for i := 0; i < v.NumField(); i++ {
			n += sizeOfValue(v.Field(i), depth+1)
		}
		return n
	case reflect.Slice, reflect.Array:
		n := int64(24)
		if l := v.Len(); l > 0 {
			n += int64(l) * sizeOfValue(v.Index(0), depth+1)
		}
		return n
	case reflect.String:
		return 16 + int64(v.Len())
	case reflect.Map, reflect.Chan, reflect.Func:
		return 64
	default:
		return int64(v.Type().Size())
	}
}
