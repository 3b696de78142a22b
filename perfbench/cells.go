package main

import (
	"fmt"
	"math"
	"time"

	"reuseiq/internal/compiler"
	"reuseiq/internal/experiments"
	"reuseiq/internal/prog"
	"reuseiq/internal/workloads"
)

// label names a cell as kernel/iqN/base|reuse[/dist][/sN][/nbltN], with the
// Suite's defaults (multi-iteration strategy, 8 NBLT entries) left out, so
// two specs the Suite caches as one cell share a label.
func label(sp experiments.Spec) string {
	l := fmt.Sprintf("%s/iq%d/base", sp.Kernel, sp.IQSize)
	if sp.Reuse {
		l = fmt.Sprintf("%s/iq%d/reuse", sp.Kernel, sp.IQSize)
	}
	if sp.Distributed {
		l += "/dist"
	}
	if sp.Strategy != 0 {
		l += fmt.Sprintf("/s%d", sp.Strategy)
	}
	if sp.Reuse && sp.NBLTSize >= 0 && sp.NBLTSize != 8 {
		l += fmt.Sprintf("/nblt%d", sp.NBLTSize)
	}
	return l
}

func cellOf(r experiments.RunResult) cellRef {
	return cellRef{
		Cycles:  r.Cycles,
		Commits: r.Commits,
		// Gated is GatedCycles/Cycles; rounding recovers the count exactly.
		GatedCycles: uint64(math.Round(r.Gated * float64(r.Cycles))),
	}
}

// cellLog follows a Suite's Progress callbacks. With one worker Prewarm runs
// one cell at a time and reports each as it finishes, so the gap since the
// previous report (or since mark) is that cell's run time. A cell reported
// before in the same Suite was served from its cache.
type cellLog struct {
	b    *bench
	res  *passResult
	seen map[string]bool
	last time.Time
}

func newCellLog(b *bench, res *passResult) *cellLog {
	return &cellLog{b: b, res: res, seen: map[string]bool{}}
}

// mark starts the clock for the next cell: call it before each Suite call
// that may prewarm.
func (l *cellLog) mark() { l.last = time.Now() }

func (l *cellLog) progress(_, _ int, sp experiments.Spec, r experiments.RunResult) {
	l.record(sp, r, time.Now())
	l.last = time.Now()
}

// record adds a cell the first time it is seen (timed from l.last to end
// when end is non-zero) and counts later sightings as cache hits.
func (l *cellLog) record(sp experiments.Spec, r experiments.RunResult, end time.Time) {
	lbl := label(sp)
	if l.seen[lbl] {
		l.res.cacheHits++
		return
	}
	l.seen[lbl] = true
	l.b.chk.check(r.Err == nil, "cell %s failed: %v", lbl, r.Err)
	l.res.addCell(lbl, cellOf(r))
	if !end.IsZero() {
		l.b.tr.add("cell", lbl, l.last, end, r.Cycles)
	}
}

// compileKernels compiles every kernel, plus its loop-distributed and x4
// unrolled forms when asked, and keeps the original images in b.progs.
func (b *bench) compileKernels(dist, unroll bool) error {
	sp := b.tr.begin("compiler.compile", "")
	defer b.tr.end(sp)
	b.progs = map[string]*prog.Program{}
	for _, k := range workloads.All() {
		irs := []*compiler.Program{k.Prog}
		if dist {
			irs = append(irs, compiler.Distribute(k.Prog))
		}
		if unroll {
			irs = append(irs, compiler.Unroll(k.Prog, 4))
		}
		for i, ir := range irs {
			p, _, err := compiler.Compile(ir)
			if err != nil {
				return fmt.Errorf("compile %s: %w", k.Name, err)
			}
			if i == 0 {
				b.progs[k.Name] = p
			}
		}
	}
	return nil
}

// warmUp runs one cell in a throwaway Suite, so first-use costs (page
// faults, pools, lazily built tables) land in set-up.
func (b *bench) warmUp(sp experiments.Spec) error {
	s := experiments.NewSuite()
	s.Parallelism = 1
	r, err := s.Run(sp)
	if err != nil {
		return err
	}
	return r.Err
}
