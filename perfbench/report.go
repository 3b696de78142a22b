package main

import (
	"fmt"
	"time"

	"reuseiq/internal/experiments"
)

// The report workload: the full cmd/reusebench report, in the order of its
// main, through one Suite with one worker. Observers and fast-forward are
// off, as in the default CLI.

func setupReport(b *bench) error {
	if err := b.compileKernels(true, true); err != nil {
		return err
	}
	return b.warmUp(experiments.Spec{Kernel: "aps", IQSize: 128, Reuse: true, NBLTSize: -1})
}

// nbltSweepSizes are the NBLT sizes of reusebench's size sweep.
var nbltSweepSizes = []int{0, 2, 4, 8, 16}

func passReport(b *bench, dir string) (passResult, error) {
	var res passResult
	s := experiments.NewSuite()
	s.Parallelism = 1
	log := newCellLog(b, &res)
	s.Progress = log.progress
	led, err := b.attachLedger(s, dir)
	if err != nil {
		return res, err
	}

	sizes := experiments.DefaultSizes
	var f5 *experiments.Fig5
	var f7 *experiments.Fig7
	var f8 *experiments.Fig8
	sections := []struct {
		name   string
		render func() (string, error)
	}{
		{"table1", func() (string, error) { return experiments.Table1(), nil }},
		{"table2", func() (string, error) { return experiments.Table2(), nil }},
		{"figure5", func() (string, error) { f, err := s.Figure5(sizes); f5 = f; return text(f, err) }},
		{"figure6", func() (string, error) { return text(s.Figure6(sizes)) }},
		{"figure7", func() (string, error) { f, err := s.Figure7(sizes); f7 = f; return text(f, err) }},
		{"figure8", func() (string, error) { f, err := s.Figure8(sizes); f8 = f; return text(f, err) }},
		{"figure9", func() (string, error) { return text(s.Figure9()) }},
		{"ablation_nblt", func() (string, error) { return text(s.AblationNBLT()) }},
		{"ablation_strategy", func() (string, error) { return text(s.AblationStrategy()) }},
		{"ablation_nbltsweep", func() (string, error) { return text(s.SweepNBLTSizes(nbltSweepSizes)) }},
		{"ablation_unroll", func() (string, error) { return text(s.AblationUnroll(4)) }},
		{"extension_frontends", func() (string, error) { return text(s.CompareFrontEnds()) }},
	}
	for _, sec := range sections {
		sp := b.tr.begin("report."+sec.name, "")
		log.mark()
		out, err := sec.render()
		b.tr.end(sp)
		if err != nil {
			return res, fmt.Errorf("%s: %w", sec.name, err)
		}
		b.checkSection(out)
	}

	// The NBLT size sweep runs its new cells through Suite.Run, not
	// Prewarm, so they never reach Progress; read them back from the
	// cache. Every simulated cell is then accounted for exactly when the
	// cells' cycles add up to the Suite's own total.
	before := s.TotalCycles()
	for _, k := range experiments.KernelNames() {
		for _, n := range nbltSweepSizes {
			sp := experiments.Spec{Kernel: k, IQSize: 64, Reuse: true, NBLTSize: n}
			if log.seen[label(sp)] {
				continue
			}
			r, err := s.Run(sp)
			if err != nil {
				return res, err
			}
			log.record(sp, r, time.Time{})
		}
	}
	b.chk.check(s.TotalCycles() == before && before == res.cycles,
		"report: cells account for %d cycles, the Suite simulated %d", res.cycles, before)
	if b.ref != nil {
		res.insts += b.ref.ReportDirect.Commits
		res.cycles += b.ref.ReportDirect.Cycles
	}

	const iq64 = 1 // index of IQ=64 in DefaultSizes
	res.gated, res.saving, res.ipcLoss = f5.Average[iq64], f7.Average[iq64], f8.Average[iq64]
	res.counters, err = sumCounters(led)
	return res, err
}

// text renders a report section.
func text[T fmt.Stringer](v T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return v.String(), nil
}
