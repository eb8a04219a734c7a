package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderPreserved(t *testing.T) {
	const n = 50
	out := make([]int, n)
	errs := Run(context.Background(), n, Options{Parallelism: 8}, func(_ context.Context, i int) error {
		out[i] = i * i
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if out[i] != i*i {
			t.Errorf("slot %d = %d, want %d", i, out[i], i*i)
		}
	}
}

func TestRunBoundsParallelism(t *testing.T) {
	const par = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	Run(context.Background(), 24, Options{Parallelism: par}, func(_ context.Context, i int) error {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if p := peak.Load(); p > par {
		t.Errorf("peak parallelism %d exceeds bound %d", p, par)
	}
}

// TestRunDefaultParallelismIsGOMAXPROCS holds the zero Parallelism to
// the runtime's GOMAXPROCS, not the host's CPU count: with GOMAXPROCS at
// 1, no two runs may be in flight at once.
func TestRunDefaultParallelismIsGOMAXPROCS(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("with one CPU, GOMAXPROCS and NumCPU agree")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var cur, peak atomic.Int64
	var mu sync.Mutex
	Run(context.Background(), 8, Options{}, func(_ context.Context, i int) error {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if p := peak.Load(); p != 1 {
		t.Errorf("peak parallelism %d with GOMAXPROCS 1, want 1", p)
	}
}

func TestRunPanicIsolation(t *testing.T) {
	const n = 20
	var completed atomic.Int64
	errs := Run(context.Background(), n, Options{Parallelism: 4}, func(_ context.Context, i int) error {
		if i == 7 {
			panic("seeded failure")
		}
		completed.Add(1)
		return nil
	})
	if got := completed.Load(); got != n-1 {
		t.Errorf("completed %d of %d healthy runs", got, n-1)
	}
	for i, err := range errs {
		if i == 7 {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("run 7 error = %v, want *PanicError", err)
			}
			if !strings.Contains(pe.Error(), "seeded failure") {
				t.Errorf("panic message lost: %v", pe)
			}
			if len(pe.Stack) == 0 {
				t.Error("panic stack not captured")
			}
			continue
		}
		if err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
}

func TestRunErrorsStayPerSlot(t *testing.T) {
	want := errors.New("boom")
	errs := Run(context.Background(), 5, Options{Parallelism: 2}, func(_ context.Context, i int) error {
		if i%2 == 1 {
			return fmt.Errorf("run %d: %w", i, want)
		}
		return nil
	})
	for i, err := range errs {
		if i%2 == 1 && !errors.Is(err, want) {
			t.Errorf("run %d error = %v", i, err)
		}
		if i%2 == 0 && err != nil {
			t.Errorf("run %d unexpected error %v", i, err)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	errs := Run(ctx, 10, Options{Parallelism: 1}, func(ctx context.Context, i int) error {
		started.Add(1)
		once.Do(func() {
			cancel()
			close(release)
		})
		<-release
		return ctx.Err()
	})
	var cancelled int
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no run observed cancellation")
	}
	if got := started.Load(); got == 10 {
		t.Error("cancelled sweep still started every run")
	}
}

// TestRunCancelDrainsBlockedAdmission is the admission-select regression
// test: with every worker slot occupied by a blocked run, cancelling the
// context must drain the dispatcher's remaining admissions immediately —
// it must not stay parked on the semaphore until the blocked run ends.
// Under the pre-select dispatcher (a bare `sem <- struct{}{}`), the
// admission decisions for runs 1 and 2 only happen after the worker is
// released, so this test times out waiting for them.
func TestRunCancelDrainsBlockedAdmission(t *testing.T) {
	const n = 3
	started := make(chan struct{}) // run 0 is occupying the only slot
	release := make(chan struct{}) // lets run 0 finish
	decisions := make(chan int, n) // admission decisions, from the hook
	testHookAdmitted = func(i int, startedRun bool) {
		if !startedRun {
			decisions <- i
		}
	}
	defer func() { testHookAdmitted = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan []error, 1)
	go func() {
		done <- Run(ctx, n, Options{Parallelism: 1}, func(_ context.Context, i int) error {
			close(started)
			<-release
			return nil
		})
	}()

	<-started
	cancel()
	// The dispatcher must refuse runs 1 and 2 promptly, while run 0 is
	// still blocked in its slot.
	for want := 1; want <= 2; want++ {
		select {
		case i := <-decisions:
			if i != want {
				t.Fatalf("admission refusal for run %d, want %d", i, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("dispatcher did not drain admission of run %d while the worker slot was blocked", want)
		}
	}

	close(release)
	errs := <-done
	if errs[0] != nil {
		t.Errorf("blocked run err = %v, want nil", errs[0])
	}
	for i := 1; i < n; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("run %d err = %v, want context.Canceled", i, errs[i])
		}
	}
}

func TestRunEmpty(t *testing.T) {
	errs := Run(context.Background(), 0, Options{}, func(_ context.Context, i int) error {
		t.Fatal("fn called for empty input")
		return nil
	})
	if len(errs) != 0 {
		t.Errorf("errs = %v", errs)
	}
}
