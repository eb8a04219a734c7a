package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"strconv"

	"dpbp/internal/cpu"
	"dpbp/internal/oracle"
	"dpbp/internal/pathprof"
)

// gate is the correctness check. Every timing or profiling run counts as
// one operation; an operation fails when it errors (or lands in a
// result's Errors), when its statistics break the oracle's counter
// algebra, or when it retires a different instruction or branch count
// than the other runs of its program.
type gate struct {
	ops      int
	failures []string
}

func (g *gate) op(what string, err error) {
	g.ops++
	if err != nil {
		g.failures = append(g.failures, what+": "+err.Error())
	}
}

// timingErr checks one timing run of a program; cfg is the run's
// configuration and stream the program's first run (filled on first use).
func timingErr(res *cpu.Result, runErr error, cfg cpu.Config, stream *streamCounts) error {
	if runErr != nil {
		return runErr
	}
	if err := oracle.CheckStats(res, cfg.Canonical()); err != nil {
		return err
	}
	return stream.check(res.Insts, res.Branches)
}

// streamCounts are the retired instruction and branch counts of a
// program's first run. The retirement stream does not depend on the
// machine configuration, so every run of the program at the same budget
// must retire the same counts.
type streamCounts struct {
	set             bool
	insts, branches uint64
}

func (s *streamCounts) check(insts, branches uint64) error {
	if !s.set {
		*s = streamCounts{set: true, insts: insts, branches: branches}
		return nil
	}
	if insts != s.insts || branches != s.branches {
		return fmt.Errorf("retired %d insts and %d branches, other runs of the program %d and %d",
			insts, branches, s.insts, s.branches)
	}
	return nil
}

// digest hashes a fixed list of simulated statistics, taken from the
// typed results by field. Counters added later do not change it; a
// changed value of a listed one does.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) uints(key string, vs ...uint64) {
	d.h.Write([]byte(key))
	for _, v := range vs {
		d.h.Write([]byte(" " + strconv.FormatUint(v, 10)))
	}
	d.h.Write([]byte("\n"))
}

// floats records derived values (IPCs, coverages) at nine significant
// digits.
func (d *digest) floats(key string, vs ...float64) {
	d.h.Write([]byte(key))
	for _, v := range vs {
		d.h.Write([]byte(" " + strconv.FormatFloat(v, 'g', 9, 64)))
	}
	d.h.Write([]byte("\n"))
}

// timing records a timing run's counters.
func (d *digest) timing(key string, r *cpu.Result) {
	d.uints(key, r.Cycles, r.Insts, r.Branches, r.HWMispredicts, r.Mispredicts,
		r.Micro.AttemptedSpawns, r.Micro.Spawned, r.Micro.AbortedActive, r.Micro.Completed,
		r.Micro.Early, r.Micro.Late, r.Micro.Useless, r.Micro.MicroInsts,
		r.PathCache.Promotions, r.PCache.Hits, r.Build.Builds)
}

// profile records a profiling run's totals and its Table 2 coverage at
// n=10, T=.10.
func (d *digest) profile(key string, p *pathprof.Profile) {
	d.uints(key, p.Insts, p.Branches, p.Mispredicts)
	c := coverage(p)
	d.floats(key+"/table2", c.MisPct, c.ExePct)
}

func (d *digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:12]) }

// referenceDigests are the seed-0 digests of each workload, recorded
// when the benchmark was defined. A simulator-only change must reproduce
// them exactly.
var referenceDigests = map[string]string{
	"paper-all":     "1b0a0849577094dce9ab2b29",
	"uthread-heavy": "c3b80e9ff3472be4949faffa",
	"no-uthread":    "289f27d7814f78247ba2c453",
}
