package runcache

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"dpbp/internal/bpred"
	"dpbp/internal/cpu"
	"dpbp/internal/pathprof"
)

// TestSingleFlight launches many goroutines at the same key and asserts
// the computation ran exactly once, everyone saw its value, and the
// counters account for every request.
func TestSingleFlight(t *testing.T) {
	const goroutines = 32
	c := New()
	key := KeyOf("test", "single-flight")
	var computes int
	var mu sync.Mutex

	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := c.Do(context.Background(), key, func() (any, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				return "value", nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("computation ran %d times, want exactly 1", computes)
	}
	for i, v := range results {
		if v != "value" {
			t.Fatalf("goroutine %d got %v, want \"value\"", i, v)
		}
	}
	st := c.Stats()
	if st.Computes != 1 {
		t.Errorf("Stats.Computes = %d, want 1", st.Computes)
	}
	if st.Lookups != goroutines {
		t.Errorf("Stats.Lookups = %d, want %d", st.Lookups, goroutines)
	}
	if st.Hits+st.Waits+st.Computes != goroutines {
		t.Errorf("Hits(%d)+Waits(%d)+Computes(%d) != Lookups(%d)",
			st.Hits, st.Waits, st.Computes, goroutines)
	}
}

// TestErrorNotCached asserts a failed computation is forgotten: the next
// Do at the same key computes again and can succeed.
func TestErrorNotCached(t *testing.T) {
	c := New()
	key := KeyOf("test", "error-retry")
	boom := errors.New("boom")

	if _, err := c.Do(context.Background(), key, func() (any, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("first Do: err = %v, want %v", err, boom)
	}
	if c.Len() != 0 {
		t.Fatalf("failed entry cached: Len = %d, want 0", c.Len())
	}
	v, err := c.Do(context.Background(), key, func() (any, error) {
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("retry Do = (%v, %v), want (42, nil)", v, err)
	}
	if st := c.Stats(); st.Errors != 1 || st.Computes != 2 {
		t.Errorf("Stats = %+v, want Errors 1, Computes 2", st)
	}
}

// TestPanicReleasesWaiters asserts a leader that fails — by returning an
// error or by panicking — doesn't poison the key: the failure reaches the
// leader, and the waiter blocked on it becomes the new leader and returns
// its own value.
func TestPanicReleasesWaiters(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name      string
		fail      func() (any, error)
		wantPanic bool
	}{
		{name: "error", fail: func() (any, error) { return nil, boom }},
		{name: "panic", fail: func() (any, error) { panic("kaboom") }, wantPanic: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			key := KeyOf("test", "failed-leader", tc.name)
			leaderIn := make(chan struct{})
			release := make(chan struct{})

			type outcome struct {
				val       any
				err       error
				recovered any
			}
			leader := make(chan outcome, 1)
			go func() {
				var o outcome
				defer func() {
					o.recovered = recover()
					leader <- o
				}()
				_, o.err = c.Do(context.Background(), key, func() (any, error) {
					close(leaderIn)
					<-release
					return tc.fail()
				})
			}()
			<-leaderIn

			waiter := make(chan outcome, 1)
			go func() {
				v, err := c.Do(context.Background(), key, func() (any, error) {
					return "retried", nil
				})
				waiter <- outcome{val: v, err: err}
			}()
			deadline := time.Now().Add(10 * time.Second)
			for c.Stats().Waits != 1 {
				if time.Now().After(deadline) {
					t.Fatal("second Do never blocked on the leader")
				}
				time.Sleep(time.Millisecond)
			}
			close(release)

			lo := <-leader
			if tc.wantPanic {
				if lo.recovered == nil {
					t.Error("leader's panic did not propagate")
				}
			} else if lo.recovered != nil || !errors.Is(lo.err, boom) {
				t.Errorf("leader = (err %v, panic %v), want err %v", lo.err, lo.recovered, boom)
			}
			if wo := <-waiter; wo.err != nil || wo.val != "retried" {
				t.Fatalf("waiter Do = (%v, %v), want (retried, nil)", wo.val, wo.err)
			}
			want := Stats{Lookups: 2, Computes: 2, Waits: 1, Errors: 1}
			if st := c.Stats(); st != want {
				t.Errorf("Stats = %+v, want %+v", st, want)
			}
		})
	}
}

// TestContextCancelled asserts a waiter gives up when its context is
// cancelled while the leader is still computing.
func TestContextCancelled(t *testing.T) {
	c := New()
	key := KeyOf("test", "cancel")
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	go func() {
		c.Do(context.Background(), key, func() (any, error) { //nolint:errcheck
			close(leaderIn)
			<-release
			return "slow", nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(ctx, key, func() (any, error) {
		return "never", nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
}

// TestUnboundedNeverEvicts pins that a cache keeps every entry, so the
// exactly-once accounting (Computes == unique runs) holds no matter how
// many keys a sweep touches.
func TestUnboundedNeverEvicts(t *testing.T) {
	c := New()
	for i := 0; i < 100; i++ {
		if _, err := c.Do(context.Background(), KeyOf("t", i), func() (any, error) {
			return i, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 100 {
		t.Errorf("Len = %d, want 100", c.Len())
	}
}

// TestKeyOfCPUConfigCanonical asserts two cpu.Configs that mean the same
// machine — one fully spelled out, one relying on defaulting — produce
// the same key after Canonical, and that changing any knob changes it.
func TestKeyOfCPUConfigCanonical(t *testing.T) {
	full := cpu.DefaultConfig()
	var sparse cpu.Config
	sparse.Mode = full.Mode
	sparse.Pruning = full.Pruning
	sparse.UsePredictions = full.UsePredictions
	sparse.AbortEnabled = full.AbortEnabled
	sparse.RebuildOnViolation = full.RebuildOnViolation

	kFull := KeyOf("cpu", full.Canonical())
	kSparse := KeyOf("cpu", sparse.Canonical())
	if kFull != kSparse {
		t.Fatalf("defaulted and spelled-out configs disagree:\n  %s\n  %s", kFull, kSparse)
	}

	mutations := map[string]func(*cpu.Config){
		"MaxInsts":       func(c *cpu.Config) { c.MaxInsts = 12345 },
		"Mode":           func(c *cpu.Config) { c.Mode = cpu.ModePerfectAll },
		"Pruning":        func(c *cpu.Config) { c.Pruning = !c.Pruning },
		"PCacheEntries":  func(c *cpu.Config) { c.PCacheEntries += 1 },
		"WindowSize":     func(c *cpu.Config) { c.WindowSize *= 2 },
		"PrePromoted":    func(c *cpu.Config) { c.PrePromoted = []uint64{7} },
		"UsePredictions": func(c *cpu.Config) { c.UsePredictions = !c.UsePredictions },
		"BPred":          func(c *cpu.Config) { c.BPred = bpred.BackendTAGE },
		"H2PSpawnGate":   func(c *cpu.Config) { c.H2PSpawnGate = true },
	}
	for name, mutate := range mutations {
		cfg := cpu.DefaultConfig()
		mutate(&cfg)
		if KeyOf("cpu", cfg.Canonical()) == kFull {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestKeyOfBPredCanonical is the predictor-backend keying regression
// test: the empty backend name and the explicit hybrid mean the same
// predictor and must collide after Canonical, and each other backend
// must key distinctly. A miss here would make the run cache serve one
// backend's results for another.
func TestKeyOfBPredCanonical(t *testing.T) {
	base := cpu.DefaultConfig()
	spelled := cpu.DefaultConfig()
	spelled.BPred = bpred.BackendHybrid
	kBase := KeyOf("cpu", base.Canonical())
	if k := KeyOf("cpu", spelled.Canonical()); k != kBase {
		t.Fatalf("empty and explicit hybrid backend disagree:\n  %s\n  %s", kBase, k)
	}
	seen := map[Key]string{kBase: bpred.BackendHybrid}
	for _, name := range []string{bpred.BackendTAGE, bpred.BackendH2P} {
		cfg := cpu.DefaultConfig()
		cfg.BPred = name
		k := KeyOf("cpu", cfg.Canonical())
		if prev, dup := seen[k]; dup {
			t.Errorf("backend %s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyOfPathprofConfigCanonical does the same for profiling configs.
func TestKeyOfPathprofConfigCanonical(t *testing.T) {
	full := pathprof.DefaultConfig()
	var sparse pathprof.Config
	k1 := KeyOf("pathprof", full.Canonical())
	k2 := KeyOf("pathprof", sparse.Canonical())
	if k1 != k2 {
		t.Fatalf("defaulted and zero profiling configs disagree:\n  %s\n  %s", k1, k2)
	}

	cfg := pathprof.DefaultConfig()
	cfg.MaxInsts = 777
	if KeyOf("pathprof", cfg.Canonical()) == k1 {
		t.Error("changing MaxInsts did not change the key")
	}
	cfg = pathprof.DefaultConfig()
	cfg.Ns = append([]int{}, cfg.Ns...)
	cfg.Ns[0]++
	if KeyOf("pathprof", cfg.Canonical()) == k1 {
		t.Error("changing Ns did not change the key")
	}
}

// TestKeyOfEmptyPrePromoted asserts a config with an empty, non-nil
// slice keys like one with none. The key prints a nil slice differently
// from an empty one, so Canonical folds them: the profile-guided
// experiment passes DifficultPathIDs' empty slice for a profile with no
// difficult path, and that run is the dynamic one, which the cache
// shares.
func TestKeyOfEmptyPrePromoted(t *testing.T) {
	want := KeyOf("cpu", "gcc", cpu.DefaultConfig().Canonical())
	for name, empty := range map[string]func(*cpu.Config){
		"PrePromoted":  func(c *cpu.Config) { c.PrePromoted = []uint64{} },
		"SMT.Contexts": func(c *cpu.Config) { c.SMT.Contexts = []cpu.WorkloadRef{} },
	} {
		cfg := cpu.DefaultConfig()
		empty(&cfg)
		if KeyOf("cpu", "gcc", cfg.Canonical()) != want {
			t.Errorf("empty %s keyed differently from nil", name)
		}
	}
}

// TestKeyedConfigsArePlainData guards the printed key: %#v prints a
// pointer, func, map, channel or interface as an address, so a keyed
// config holding one would split equal runs or merge different ones.
// Every field of the keyed configs must be a bool, a number, a string,
// or a slice, array or struct of those. cpu.Config's observation hooks
// and tracer are the exceptions: the experiment harness bypasses the
// cache whenever one is set, so KeyOf only ever sees them nil.
func TestKeyedConfigsArePlainData(t *testing.T) {
	bypassed := map[string]bool{
		"cpu.Config.OnBuild":  true,
		"cpu.Config.OnRetire": true,
		"cpu.Config.Obs":      true,
	}
	var walk func(name string, typ reflect.Type)
	walk = func(name string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Slice, reflect.Array:
			walk(name+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if f := name + "." + typ.Field(i).Name; !bypassed[f] {
					walk(f, typ.Field(i).Type)
				}
			}
		default:
			t.Errorf("%s (%s) is not plain data: %%#v would print it into the key as an address", name, typ.Kind())
		}
	}
	walk("cpu.Config", reflect.TypeOf(cpu.Config{}))
	walk("pathprof.Config", reflect.TypeOf(pathprof.Config{}))
}

// TestKeyOfDomainSeparation asserts equal payloads under different
// domains don't collide, and that part boundaries matter.
func TestKeyOfDomainSeparation(t *testing.T) {
	if KeyOf("a", 1) == KeyOf("b", 1) {
		t.Error("different domains produced the same key")
	}
	if KeyOf("d", "ab", "c") == KeyOf("d", "a", "bc") {
		t.Error("different part boundaries produced the same key")
	}
}
