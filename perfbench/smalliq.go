package main

import (
	"fmt"
	"time"

	"reuseiq/internal/experiments"
)

// The small-iq workload: every kernel, baseline and reuse, original and
// loop-distributed, at IQ=32, in a fresh Suite per pass, one cell at a time
// in an order the seed shuffles.

const smallIQ = 32

func setupSmallIQ(b *bench) error {
	if err := b.compileKernels(true, false); err != nil {
		return err
	}
	return b.warmUp(experiments.Spec{Kernel: "btrix", IQSize: smallIQ, Distributed: true, NBLTSize: -1})
}

func passSmallIQ(b *bench, dir string) (passResult, error) {
	var res passResult
	s := experiments.NewSuite()
	s.Parallelism = 1
	led, err := b.attachLedger(s, dir)
	if err != nil {
		return res, err
	}
	var specs []experiments.Spec
	for _, k := range experiments.KernelNames() {
		for _, dist := range []bool{false, true} {
			for _, reuse := range []bool{false, true} {
				specs = append(specs, experiments.Spec{Kernel: k, IQSize: smallIQ, Reuse: reuse, Distributed: dist, NBLTSize: -1})
			}
		}
	}
	b.rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	for _, sp := range specs {
		t0 := time.Now()
		r, err := s.Run(sp)
		if err != nil {
			return res, err
		}
		b.tr.add("cell", label(sp), t0, time.Now(), r.Cycles)
		b.chk.check(r.Err == nil, "small-iq: cell %s failed: %v", label(sp), r.Err)
		res.addCell(label(sp), cellOf(r))
	}

	// The paper averages come from the library's own figure code, served
	// entirely from the cells above.
	sizes := []int{smallIQ}
	f5, err := s.Figure5(sizes)
	if err != nil {
		return res, err
	}
	f7, err := s.Figure7(sizes)
	if err != nil {
		return res, err
	}
	f8, err := s.Figure8(sizes)
	if err != nil {
		return res, err
	}
	b.chk.check(s.TotalCycles() == res.cycles, "small-iq: figures simulated %d extra cycles", s.TotalCycles()-res.cycles)
	res.gated, res.saving, res.ipcLoss = f5.Average[0], f7.Average[0], f8.Average[0]
	res.counters, err = sumCounters(led)
	if err != nil {
		return res, fmt.Errorf("small-iq: ledger: %w", err)
	}
	return res, nil
}
