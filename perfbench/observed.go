package main

import (
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"

	"reuseiq/internal/experiments"
	"reuseiq/internal/flightrec"
	"reuseiq/internal/lockstep"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/runstore"
	"reuseiq/internal/snapshot"
	"reuseiq/internal/telemetry"
)

// The observed workload: recording and debugging traffic at the Table 1
// configuration. The write side runs every kernel, baseline and reuse, with
// the telemetry tracer, the lockstep oracle and a persisted flight recorder,
// appending each run to a ledger, then runs the same cells as a journaled
// Suite sweep with mid-cell checkpoints. The read side loads every recording
// and seeks to seeded cycles, loads the ledger and runs the sentinel over
// it, and replays the finished journal into a fresh Suite.

const (
	observedIQ        = 64
	seeksPerRecording = 8
	// observedCkptEvery is the journal's mid-cell checkpoint interval in
	// cycles: several checkpoints in every long cell.
	observedCkptEvery = 100_000
)

func setupObserved(b *bench) error {
	if err := b.compileKernels(false, false); err != nil {
		return err
	}
	return b.warmUp(experiments.Spec{Kernel: "btrix", IQSize: observedIQ, Reuse: true, NBLTSize: -1})
}

func passObserved(b *bench, dir string) (passResult, error) {
	var res passResult
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	led, err := runstore.Open(ledgerPath)
	if err != nil {
		return res, err
	}
	defer led.Close()

	// Write side: observed runs, then the journaled sweep.
	var recordings []string
	for _, k := range experiments.KernelNames() {
		for _, reuse := range []bool{false, true} {
			sp := experiments.Spec{Kernel: k, IQSize: observedIQ, Reuse: reuse, NBLTSize: -1}
			rdir := filepath.Join(dir, "rec-"+filepath.Base(label(sp))+"-"+k)
			if err := b.recordRun(sp, rdir, led, &res); err != nil {
				return res, err
			}
			recordings = append(recordings, rdir)
		}
	}
	journalPath := filepath.Join(dir, "journal.jsonl")
	sp := b.tr.begin("experiments.journal_sweep", "")
	saves0, _ := snapshot.Counters()
	s := experiments.NewSuite()
	s.Parallelism = 1
	log := newCellLog(b, &res)
	s.Progress = log.progress
	s.UseLedger(led)
	j, _, err := s.AttachJournal(journalPath, false)
	if err != nil {
		return res, err
	}
	j.CheckpointEvery = observedCkptEvery
	log.mark()
	want, avgs, err := observedFigures(s)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}
	saves1, _ := snapshot.Counters()
	res.journalCkpts = saves1 - saves0
	b.tr.end(sp)
	res.gated, res.saving, res.ipcLoss = avgs[0], avgs[1], avgs[2]

	// Read side: time travel in every recording.
	for _, rdir := range recordings {
		b.seekAll(rdir)
	}

	// The ledger holds each cell twice (observed run and sweep cell);
	// the sentinel must find them bit-identical.
	sp = b.tr.begin("runstore.load", "")
	recs, err := runstore.Load(ledgerPath)
	b.tr.end(sp)
	if err != nil {
		return res, err
	}
	sp = b.tr.begin("runstore.sentinel", "")
	rep := runstore.Sentinel(recs)
	b.tr.end(sp)
	b.chk.check(len(recs) == 2*len(recordings) && len(rep.Groups) == len(recordings),
		"observed: ledger holds %d records in %d compared groups, want %d in %d",
		len(recs), len(rep.Groups), 2*len(recordings), len(recordings))
	b.chk.check(rep.Pass(), "observed: sentinel drifts: %v", rep.Drifts())

	// Resume the finished journal in a fresh Suite: every cell replays
	// from the journal and the figures render identically.
	sp = b.tr.begin("experiments.resume", "")
	s2 := experiments.NewSuite()
	s2.Parallelism = 1
	j2, n, err := s2.AttachJournal(journalPath, true)
	if err != nil {
		return res, err
	}
	got, _, err := observedFigures(s2)
	if cerr := j2.Close(); err == nil {
		err = cerr
	}
	b.tr.end(sp)
	if err != nil {
		return res, err
	}
	b.chk.check(n == len(recordings), "observed: journal replayed %d cells, want %d", n, len(recordings))
	b.chk.check(got == want, "observed: resumed sweep renders differently:\n%s\nwant:\n%s", got, want)

	res.counters, err = sumCounters(led)
	return res, err
}

// observedFigures renders Figures 5, 7 and 8 at IQ=64 and returns their
// averages (gated rate, power saving, IPC loss).
func observedFigures(s *experiments.Suite) (string, [3]float64, error) {
	var avgs [3]float64
	sizes := []int{observedIQ}
	f5, err := s.Figure5(sizes)
	if err != nil {
		return "", avgs, err
	}
	f7, err := s.Figure7(sizes)
	if err != nil {
		return "", avgs, err
	}
	f8, err := s.Figure8(sizes)
	if err != nil {
		return "", avgs, err
	}
	avgs = [3]float64{f5.Average[0], f7.Average[0], f8.Average[0]}
	return f5.String() + f7.String() + f8.String(), avgs, nil
}

// recordRun simulates one cell with every observer attached and a persisted
// flight recording in dir, and appends it to the ledger.
func (b *bench) recordRun(sp experiments.Spec, dir string, led *runstore.Ledger, res *passResult) error {
	lbl := label(sp)
	span := b.tr.begin("observed.run", lbl)
	defer b.tr.end(span)
	p := b.progs[sp.Kernel]
	cfg := pipeline.DefaultConfig().WithIQSize(sp.IQSize)
	cfg.Reuse.Enabled = sp.Reuse
	cfg.Reuse.NBLTSize = 8 // the Suite's default, so the fingerprints match
	m := pipeline.New(cfg, p)
	defer m.Release()
	m.AttachTelemetry(telemetry.New(telemetry.Config{}))
	rec, err := flightrec.Attach(m, flightrec.Config{
		Dir: dir,
		Manifest: flightrec.Manifest{
			Kernel: sp.Kernel, IQSize: sp.IQSize, Baseline: !sp.Reuse,
			NBLTSize: cfg.Reuse.NBLTSize, NBLTSet: true,
		},
	})
	if err != nil {
		return err
	}
	orc := lockstep.Attach(m, p)
	runErr := m.RunBreakable(64, rec.Break)
	fin := b.tr.begin("flightrec.finish", lbl)
	finErr := rec.Finish()
	b.tr.end(fin)
	m.Tel.Finalize(m.Cycle())
	b.chk.check(runErr == nil, "observed: %s: %v", lbl, runErr)
	b.chk.check(finErr == nil, "observed: %s: flightrec: %v", lbl, finErr)
	// The oracle also checks the HALT, which C.Commits leaves out.
	b.chk.check(orc.Commits == m.C.Commits+1, "observed: %s: oracle checked %d of %d commits", lbl, orc.Commits, m.C.Commits+1)
	res.flightCkpts += rec.Status().CheckpointsTaken
	res.flightBytes += dirBytes(dir)
	res.addCell("run/"+lbl, cellRef{Cycles: m.C.Cycles, Commits: m.C.Commits, GatedCycles: m.C.GatedCycles})

	r := runstore.FromMachine(m)
	r.Kind = runstore.KindSim
	r.Kernel = sp.Kernel
	r.FlightRec, r.Verified = true, true
	app := b.tr.begin("runstore.append", lbl)
	defer b.tr.end(app)
	return led.Append(&r)
}

// seekAll loads one recording and seeks to seeded cycles in it, checking
// that every seek lands on its target.
func (b *bench) seekAll(dir string) {
	sp := b.tr.begin("flightrec.load", dir)
	a, err := flightrec.Load(dir)
	b.tr.end(sp)
	if !b.chk.check(err == nil, "observed: load %s: %v", dir, err) {
		return
	}
	sess := flightrec.NewSession(a)
	defer sess.Close()
	for _, n := range seekTargets(b.rng, a) {
		sp := b.tr.begin("flightrec.seek", "")
		err := sess.Seek(n)
		b.tr.end(sp)
		b.chk.check(err == nil && sess.Cycle() == n, "observed: seek to cycle %d in %s reached %d: %v", n, dir, sess.Cycle(), err)
	}
}

// seekTargets draws seeksPerRecording cycles from a recording, newest first.
// Target i lies in checkpoint interval i mod n at a seeded offset within the
// i-th of k equal strata of that interval ((i+u)/k of it), so every interval
// is visited and the cycles a pass replays barely depend on the seed. Newest
// first makes every Seek restore a checkpoint instead of replaying on from
// the previous target.
func seekTargets(rng *rand.Rand, a *flightrec.Archive) []uint64 {
	targets := make([]uint64, seeksPerRecording)
	for i := range targets {
		c := i % len(a.Ckpts)
		end := a.End
		if c+1 < len(a.Ckpts) {
			end = a.Ckpts[c+1].Cycle
		}
		from := a.Ckpts[c].Cycle
		frac := (float64(i) + rng.Float64()) / seeksPerRecording
		targets[i] = from + uint64(frac*float64(end-from))
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] > targets[j] })
	return targets
}

// dirBytes is the total size of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
