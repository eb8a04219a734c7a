// Package runcache is a concurrency-safe memoization layer for
// deterministic computations. The experiment harness keys every timing
// run and profiling run by (benchmark name, canonicalized configuration);
// because the simulator is bit-deterministic, two runs with the same key
// produce identical results, so the second one is pure waste. A shared
// Cache makes `-exp all` compute each unique run exactly once: the figure
// sweeps re-request the same baselines and profiles, and every repeat is
// served from the cache or by waiting on the in-flight first computation
// (single-flight).
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
	"fmt"
	"strings"
	"sync"
)

// Key names one cached computation: a domain tag and the printed inputs
// (see KeyOf).
type Key string

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

// KeyOf builds a cache key: the domain, then each part printed with %#v,
// separated by \x1f. %#v prints type names, field names and every value
// (floats in shortest round-trip form), so two parts print the same
// exactly when they are equal. Callers canonicalize configuration values
// first (e.g. cpu.Config.Canonical) so that configs meaning the same run
// print the same.
//
// %#v prints a pointer, func, map or channel as an address and a nil
// slice unlike an empty one, so a part must be plain data with empty
// slices folded to nil, as the Canonical methods do. A config carrying
// an observation hook or a tracer is not cacheable; callers bypass the
// cache for it.
func KeyOf(domain string, parts ...any) Key {
	var b strings.Builder
	b.WriteString(domain)
	for _, p := range parts {
		fmt.Fprintf(&b, "\x1f%#v", p)
	}
	return Key(b.String())
}
