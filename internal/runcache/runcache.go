// Package runcache is a concurrency-safe, content-addressed memoization
// layer for deterministic computations. The experiment harness keys every
// timing run and profiling run by (program fingerprint, canonicalized
// configuration); because the simulator is bit-deterministic, two runs
// with the same key produce identical results, so the second one is pure
// waste. A shared Cache makes `-exp all` compute each unique run exactly
// once: the figure sweeps re-request the same baselines and profiles, and
// every repeat is served from the cache or by waiting on the in-flight
// first computation (single-flight).
//
// The cache stores values as `any` and never copies them, so cached
// values are shared across callers and must be treated as immutable.
// Errors are never cached: a failed computation (including one cancelled
// by its context) is forgotten, and any waiters retry — one of them
// becoming the new leader — so a transient failure in one sweep cannot
// poison later ones.
//
// A cache is unbounded: every completed entry lives until the cache is
// dropped. That is exactly right for a one-shot sweep, and it is what
// keeps the exactly-once accounting byte-identical: Computes equals the
// number of unique runs because nothing is ever recomputed.
package runcache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sync"
)

// Key is a content-addressed cache key: a sha256 over a domain tag and
// the canonical encoding of the inputs (see KeyOf).
type Key [sha256.Size]byte

// String renders an abbreviated hex form for logs.
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// Stats counts cache traffic. Computes equals the number of distinct keys
// whose computation was started; with a deterministic workload and no
// errors it equals the number of unique runs, which is what the
// exactly-once tests assert.
type Stats struct {
	// Lookups counts Do calls.
	Lookups uint64
	// Computes counts computations started (successful or not).
	Computes uint64
	// Hits counts Do calls served by an already-completed entry.
	Hits uint64
	// Waits counts Do calls that blocked on another caller's in-flight
	// computation.
	Waits uint64
	// Errors counts computations that returned an error (never cached).
	Errors uint64
}

// entry is one cache slot. done is closed when the computation finishes;
// val/err must only be read after done is closed.
type entry struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is a single-flight memoization table. The zero value is not
// usable; call New.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	stats   Stats
}

// New returns an empty cache.
func New() *Cache { return &Cache{entries: make(map[Key]*entry)} }

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached (or in-flight) entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Do returns the cached value for k, computing it with compute if absent.
// Exactly one caller computes a given key at a time; concurrent callers
// with the same key block until the leader finishes (or until their own
// ctx is cancelled — the computation itself keeps running). If the leader
// returns an error the entry is forgotten and one of the waiters retries,
// so errors are returned to everyone waiting but never cached.
//
// A compute that panics is also forgotten before the panic propagates, so
// the caller's panic isolation (e.g. internal/sched) sees the original
// panic and waiters simply retry.
func (c *Cache) Do(ctx context.Context, k Key, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	c.stats.Lookups++
	for {
		e, ok := c.entries[k]
		if !ok {
			e = &entry{done: make(chan struct{})}
			c.entries[k] = e
			c.stats.Computes++
			c.mu.Unlock()
			return c.lead(k, e, compute)
		}
		select {
		case <-e.done:
			c.stats.Hits++
			c.mu.Unlock()
		default:
			c.stats.Waits++
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if e.err == nil {
			return e.val, nil
		}
		// The leader failed; its entry is already deleted. Loop: we may
		// become the new leader.
		c.mu.Lock()
	}
}

// lead runs the computation for the entry this caller just installed.
func (c *Cache) lead(k Key, e *entry, compute func() (any, error)) (any, error) {
	completed := false
	defer func() {
		// On panic: forget the entry and release waiters before the
		// panic propagates, so they retry instead of hanging.
		if !completed {
			e.err = fmt.Errorf("runcache: computation for %v panicked", k)
		}
		if e.err != nil {
			c.mu.Lock()
			delete(c.entries, k)
			c.stats.Errors++
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.val, e.err = compute()
	completed = true
	return e.val, e.err
}

// KeyOf builds a content-addressed key from a domain tag and a sequence
// of canonical parts. Parts are hashed structurally via reflection: two
// parts hash identically iff they have the same shape and scalar
// contents, regardless of how they were built (a nil slice equals an
// empty one). Callers canonicalize configuration values first (e.g.
// cpu.Config.Canonical) so that configs meaning the same run collide.
//
// Maps, channels, and non-nil funcs have no canonical encoding and panic:
// a config carrying one (such as a cpu.Config with an OnBuild hook) is
// not cacheable, and callers must bypass the cache for it.
func KeyOf(domain string, parts ...any) Key {
	h := sha256.New()
	writeString(h, domain)
	for _, p := range parts {
		writeByte(h, 0x1f) // part separator
		writeValue(h, reflect.ValueOf(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

func writeByte(h hash.Hash, b byte) {
	// hash.Hash.Write never returns an error.
	h.Write([]byte{b}) //nolint:errcheck
}

func writeUint64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:]) //nolint:errcheck
}

func writeString(h hash.Hash, s string) {
	writeUint64(h, uint64(len(s)))
	h.Write([]byte(s)) //nolint:errcheck
}

// Kind tags keep composite encodings prefix-free: every node contributes
// its kind and (for variable-size nodes) its length before its contents.
const (
	tagBool = iota + 1
	tagInt
	tagUint
	tagFloat
	tagString
	tagSeq // slices and arrays
	tagStruct
	tagNil // nil pointer, func, or interface
	tagPtr
	tagIface
)

func writeValue(h hash.Hash, v reflect.Value) {
	if !v.IsValid() {
		writeByte(h, tagNil)
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		writeByte(h, tagBool)
		if v.Bool() {
			writeByte(h, 1)
		} else {
			writeByte(h, 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		writeByte(h, tagInt)
		writeUint64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		writeByte(h, tagUint)
		writeUint64(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		writeByte(h, tagFloat)
		writeUint64(h, math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		writeByte(h, tagFloat)
		writeUint64(h, math.Float64bits(real(v.Complex())))
		writeUint64(h, math.Float64bits(imag(v.Complex())))
	case reflect.String:
		writeByte(h, tagString)
		writeString(h, v.String())
	case reflect.Slice, reflect.Array:
		// A nil slice and an empty one encode identically on purpose.
		writeByte(h, tagSeq)
		n := v.Len()
		writeUint64(h, uint64(n))
		for i := 0; i < n; i++ {
			writeValue(h, v.Index(i))
		}
	case reflect.Struct:
		t := v.Type()
		writeByte(h, tagStruct)
		writeString(h, t.String())
		writeUint64(h, uint64(t.NumField()))
		for i := 0; i < t.NumField(); i++ {
			writeValue(h, v.Field(i))
		}
	case reflect.Ptr:
		if v.IsNil() {
			writeByte(h, tagNil)
			return
		}
		writeByte(h, tagPtr)
		writeValue(h, v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			writeByte(h, tagNil)
			return
		}
		writeByte(h, tagIface)
		writeString(h, v.Elem().Type().String())
		writeValue(h, v.Elem())
	case reflect.Func, reflect.Chan, reflect.Map:
		if v.IsNil() {
			writeByte(h, tagNil)
			return
		}
		panic(fmt.Sprintf("runcache: cannot canonicalize non-nil %s (%s)", v.Kind(), v.Type()))
	default:
		panic(fmt.Sprintf("runcache: cannot canonicalize %s (%s)", v.Kind(), v.Type()))
	}
}
