// Package sched is the experiment scheduler: it fans a set of
// independent runs out over a bounded worker pool, preserving result
// order, honouring context cancellation, and converting per-run panics
// into structured errors so one bad run cannot take down a whole sweep.
//
// The package deliberately knows nothing about benchmarks, machines, or
// experiments: callers close over their own input and output slices and
// write each run's result into its own slot, which is what keeps output
// order independent of completion order. sched owns only the concurrency
// and failure policy. Everything above it (the experiment harness, the
// ablation and profile-guided drivers) shares this one implementation
// instead of hand-rolling semaphores.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Options tunes one fan-out.
type Options struct {
	// Parallelism bounds concurrently executing runs; <= 0 means
	// runtime.GOMAXPROCS(0), which honours a user-capped runtime (the
	// GOMAXPROCS variable or call) where runtime.NumCPU does not, so a
	// sweep never oversubscribes the Go scheduler.
	Parallelism int
}

// PanicError wraps a recovered panic from one run.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error renders the panic value; the stack is preserved for callers that
// want to log it.
func (e *PanicError) Error() string { return fmt.Sprintf("run panicked: %v", e.Value) }

// Run executes fn(ctx, i) for every i in [0, n), at most
// opts.Parallelism at a time, and returns a slice of per-run errors
// indexed by i (nil for successful runs). Runs that panic contribute a
// *PanicError instead of unwinding the sweep; runs whose turn comes
// after the context is cancelled are not started and report ctx.Err().
//
// Result ordering is the caller's concern by construction: fn writes its
// result into slot i of a caller-owned slice, so output order never
// depends on completion order.
func Run(ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Respect cancellation between admissions so a cancelled sweep
		// drains quickly instead of starting every remaining run.
		if err := ctx.Err(); err != nil {
			errs[i] = err
			admitted(i, false)
			continue
		}
		// Admission must watch the context too: with every worker slot
		// occupied by a long run, a bare `sem <- struct{}{}` would park
		// the dispatcher until a slot freed, so a cancelled sweep could
		// not drain its remaining admissions until the slow run ended.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			admitted(i, false)
			continue
		}
		wg.Add(1)
		admitted(i, true)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = runOne(ctx, i, fn)
		}(i)
	}
	wg.Wait()
	return errs
}

// testHookAdmitted, when non-nil, observes every admission decision:
// started reports whether run i acquired a worker slot (true) or was
// refused by cancellation (false). It exists so the cancellation
// regression test can assert the dispatcher drains while a slot-holding
// worker is still blocked — Run's return value alone cannot distinguish
// a drained dispatcher from one parked on the semaphore.
var testHookAdmitted func(i int, started bool)

// admitted reports one admission decision to the test hook.
func admitted(i int, started bool) {
	if h := testHookAdmitted; h != nil {
		h(i, started)
	}
}

// runOne executes a single run with panic recovery.
func runOne(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	if e := ctx.Err(); e != nil {
		return e
	}
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Value: v, Stack: buf}
		}
	}()
	return fn(ctx, i)
}
