package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"reuseiq/internal/altfe"
	"reuseiq/internal/compiler"
	"reuseiq/internal/mem"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/workloads"
)

// cellRef is the simulated outcome of one cell.
type cellRef struct {
	Cycles      uint64 `json:"cycles"`
	Commits     uint64 `json:"commits"`
	GatedCycles uint64 `json:"gated_cycles"`
}

// reference is the simulated outcome every run must reproduce exactly.
type reference struct {
	// Cells maps workload -> cell label -> outcome of one pass.
	Cells map[string]map[string]cellRef `json:"cells"`
	// Counters maps workload -> modeled counter -> its sum over one pass's
	// cells, as the traced run collects it from the run ledger.
	Counters map[string]map[string]uint64 `json:"counters"`
	// ReportDirect totals the machines Ablation A3 and the front-end
	// extension build outside the Suite cache. The public API does not
	// expose them per run; the report's text check proves they ran.
	ReportDirect cellRef `json:"report_direct"`
}

func referencePath(root string) string {
	return filepath.Join(root, "perfbench", "testdata", "reference.json")
}

func loadReference(root string) (*reference, error) {
	data, err := os.ReadFile(referencePath(root))
	if err != nil {
		return nil, fmt.Errorf("no reference (regenerate with --regen): %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", referencePath(root), err)
	}
	return &ref, nil
}

// regenerate runs one collecting pass of every workload and writes what it
// simulated as the new reference. The report's text is still checked against
// RESULTS.txt, so a reference is only written from a simulator that renders
// the paper's report unchanged.
func regenerate(b *bench, tmp string) error {
	direct, err := directCells()
	if err != nil {
		return err
	}
	ref := &reference{
		Cells:        map[string]map[string]cellRef{},
		Counters:     map[string]map[string]uint64{},
		ReportDirect: direct,
	}
	b.ref, b.collect = ref, true
	for _, w := range benchWorkloads {
		if err := w.setup(b); err != nil {
			return fmt.Errorf("%s: setup: %w", w.name, err)
		}
		dir := filepath.Join(tmp, w.name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		r, err := w.pass(b, dir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		ref.Cells[w.name], ref.Counters[w.name] = r.cells, r.counters
	}
	if b.chk.failed > 0 {
		return fmt.Errorf("%d checks failed; reference not written", b.chk.failed)
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath(b.root), append(data, '\n'), 0o644)
}

// directCells simulates the machines experiments.AblationUnroll(4) and
// experiments.CompareFrontEnds build without the Suite, mirroring their
// configurations, and totals them.
func directCells() (cellRef, error) {
	const iq = 64
	var total cellRef
	run := func(cfg pipeline.Config, ir *compiler.Program) error {
		p, _, err := compiler.Compile(ir)
		if err != nil {
			return err
		}
		m := pipeline.New(cfg, p)
		if err := m.Run(); err != nil {
			return err
		}
		total.Cycles += m.C.Cycles
		total.Commits += m.C.Commits
		total.GatedCycles += m.C.GatedCycles
		m.Release()
		return nil
	}
	base := pipeline.BaselineConfig().WithIQSize(iq)
	reuse := pipeline.DefaultConfig().WithIQSize(iq)
	filter, loop, riq := base, base, base
	filter.Mem.L0I = mem.DefaultFilterCache()
	loop.LoopCache = &altfe.LoopCacheConfig{Entries: 32}
	riq.Reuse.Enabled, riq.Reuse.NBLTSize = true, 8
	for _, k := range workloads.All() {
		for _, ir := range []*compiler.Program{k.Prog, compiler.Unroll(k.Prog, 4)} {
			for _, cfg := range []pipeline.Config{base, reuse} {
				if err := run(cfg, ir); err != nil {
					return total, fmt.Errorf("A3 %s: %w", k.Name, err)
				}
			}
		}
		for _, cfg := range []pipeline.Config{base, filter, loop, riq} {
			if err := run(cfg, k.Prog); err != nil {
				return total, fmt.Errorf("extension %s: %w", k.Name, err)
			}
		}
	}
	return total, nil
}
