package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// repReport is what one repetition, run in its own child process,
// reports to the parent.
type repReport struct {
	SetupS   float64 `json:"setup_s"`
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	MaxRSSMB float64 `json:"max_rss_mb"`
	// SimInsts counts the instructions the measured region simulated:
	// timing plus profiling runs.
	SimInsts uint64   `json:"sim_insts"`
	Ops      int      `json:"ops"`
	Failures []string `json:"failures"`
	Digest   string   `json:"digest"`
	// Sim holds the simulated end-to-end metrics the repetition's runs
	// determine; a side repetition determines all of them.
	Sim map[string]float64 `json:"sim"`
	// Layers holds per-layer metrics: counters always, host-time splits
	// only when traced.
	Layers map[string]float64 `json:"layers"`
	Spans  []span             `json:"spans,omitempty"`
}

// runRep runs one repetition of the named workload. traced records spans
// and runs the reference passes; side also runs the untimed side runs
// that complete the simulated metrics.
func runRep(ctx context.Context, name string, seed int64, traced, side bool) (*repReport, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var rep *repReport
	var err error
	if name == paperAll {
		rep, err = paperAllRep(ctx, tr)
	} else {
		rep, err = liveWorkloads[name].rep(ctx, seed, tr, side)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		rep.Spans = tr.spans
		rep.Layers["ledger.unattributed_frac"] = tr.unattributed("run")
	}
	return rep, nil
}

// setupPasses is how many times a repetition runs its set-up. setup_s is
// the median pass, so that a pass slowed by a page fault or a GC cycle
// does not move it.
const setupPasses = 5

// timeSetup runs one set-up pass setupPasses times under a "setup" span
// and returns the median pass's seconds. It then collects the passes'
// garbage, so that the measured region does not pay for the extra passes
// and starts from the same heap in every repetition.
func timeSetup(tr *tracer, pass func() error) (float64, error) {
	id := tr.begin("setup")
	secs := make([]float64, setupPasses)
	for i := range secs {
		start := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		secs[i] = time.Since(start).Seconds()
	}
	tr.end(id, 0, 0)
	runtime.GC()
	return median(secs), nil
}

// meter measures the measured region of one repetition: wall and CPU
// time, peak resident memory and Go runtime activity.
type meter struct {
	start time.Time
	cpu   time.Duration
	ms    runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu, _, _ = rusage() // an error here recurs in stop, which reports it
	m.start = time.Now()
	return m
}

// stop records the region's costs into rep and its Go runtime layer.
func (m *meter) stop(rep *repReport) error {
	rep.WallS = time.Since(m.start).Seconds()
	cpu, rss, err := rusage()
	if err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	rep.CPUS = (cpu - m.cpu).Seconds()
	rep.MaxRSSMB = float64(rss) / (1 << 20)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.Layers["go.alloc_mb"] = float64(ms.TotalAlloc-m.ms.TotalAlloc) / (1 << 20)
	rep.Layers["go.gc_cycles"] = float64(ms.NumGC - m.ms.NumGC)
	rep.Layers["go.gc_cpu_frac"] = ms.GCCPUFraction
	return nil
}

// rusage returns the process's user plus system CPU time and its peak
// resident set in bytes.
func rusage() (time.Duration, int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	// Linux reports Maxrss in KiB.
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss << 10, nil
}
