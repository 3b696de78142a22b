// Command reusebench regenerates every table and figure of the paper's
// evaluation, plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	reusebench                  # everything
//	reusebench -table 1         # one table (1 or 2)
//	reusebench -figure 5        # one figure (5, 6, 7, 8 or 9)
//	reusebench -ablation nblt   # one ablation (nblt or strategy)
//	reusebench -extension frontends  # compare vs filter cache / loop cache
//	reusebench -forcefail adi:64     # sabotage one cell; sweep still completes
//
// A simulation that aborts (watchdog, cycle budget) does not abort the
// sweep: the cell is rendered as "fail" and excluded from averages.
//
// Alongside the text report, a machine-readable throughput summary is
// written to BENCH_simcore.json (disable with -benchjson ""): simulated
// cycles, cycles/sec, ns/cycle, allocs/cycle, per-section wall time, and
// one section per Figure 5 cell (<kernel>/iq<n>) with its simulated cycles
// and ns/cycle.
// CI and the perf-regression harness consume it; the text report stays
// byte-stable across timing jitter.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"reuseiq/internal/core"
	"reuseiq/internal/experiments"
	"reuseiq/internal/ffwd"
	"reuseiq/internal/obs"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/runstore"
	"reuseiq/internal/telemetry"
)

// Both machine-readable summaries (BENCH_simcore.json, BENCH_ffwd.json) are
// emitted as schema-versioned runstore.BenchRecord envelopes; cmd/benchdiff
// -json validates and diffs them. Cycle totals come from the Suite cache
// (each configuration simulated exactly once), so cycles/sec is true
// simulation throughput, not inflated by cache hits.

// cellTimes collects the simulation time of each Figure 5 cell (reuse on,
// original code, default strategy and NBLT) as it finishes.
type cellTimes struct {
	mu    sync.Mutex
	cells []runstore.BenchSection
}

func (c *cellTimes) record(sp experiments.Spec, r experiments.RunResult, sim time.Duration) {
	if !sp.Reuse || sp.Distributed || sp.Strategy != core.StrategyMulti || sp.NBLTSize >= 0 || r.Cycles == 0 {
		return
	}
	sec := runstore.BenchSection{
		Name:            fmt.Sprintf("%s/iq%d", sp.Kernel, sp.IQSize),
		Wall:            sim.Round(time.Millisecond).String(),
		WallNS:          sim.Nanoseconds(),
		SimulatedCycles: r.Cycles,
		NSPerCycle:      float64(sim.Nanoseconds()) / float64(r.Cycles),
	}
	c.mu.Lock()
	c.cells = append(c.cells, sec)
	c.mu.Unlock()
}

// sections returns the recorded cells sorted by name.
func (c *cellTimes) sections() []runstore.BenchSection {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := slices.Clone(c.cells)
	slices.SortFunc(out, func(a, b runstore.BenchSection) int { return strings.Compare(a.Name, b.Name) })
	return out
}

func makeFfwdSection(name string, off, on time.Duration) runstore.BenchFfwdSection {
	s := runstore.BenchFfwdSection{
		Name:  name,
		Off:   off.Round(time.Millisecond).String(),
		On:    on.Round(time.Millisecond).String(),
		OffNS: off.Nanoseconds(),
		OnNS:  on.Nanoseconds(),
	}
	if on > 0 {
		s.Speedup = float64(off) / float64(on)
	}
	return s
}

// ffwdCompare times every figure section with the fast-forward engine off
// and on (each mode gets its own suite, so caching behaves as in a normal
// sweep), then a loop-heavy figure5-style sweep of the loopmark kernel where
// the analytic skip dominates. Any difference in rendered output or cycle
// counts between the two modes is an error: the engine's contract is
// byte-identical results.
func ffwdCompare(sizes []int) ([]runstore.BenchFfwdSection, error) {
	figs := []struct {
		name string
		run  func(*experiments.Suite) (string, error)
	}{
		{"figure5", func(s *experiments.Suite) (string, error) {
			f, err := s.Figure5(sizes)
			if err != nil {
				return "", err
			}
			return f.String(), nil
		}},
		{"figure6", func(s *experiments.Suite) (string, error) {
			f, err := s.Figure6(sizes)
			if err != nil {
				return "", err
			}
			return f.String(), nil
		}},
		{"figure7", func(s *experiments.Suite) (string, error) {
			f, err := s.Figure7(sizes)
			if err != nil {
				return "", err
			}
			return f.String(), nil
		}},
		{"figure8", func(s *experiments.Suite) (string, error) {
			f, err := s.Figure8(sizes)
			if err != nil {
				return "", err
			}
			return f.String(), nil
		}},
		{"figure9", func(s *experiments.Suite) (string, error) {
			f, err := s.Figure9()
			if err != nil {
				return "", err
			}
			return f.String(), nil
		}},
	}
	sOff, sOn := experiments.NewSuite(), experiments.NewSuite()
	sOn.FastForward = true
	var out []runstore.BenchFfwdSection
	for _, fig := range figs {
		t0 := time.Now()
		offOut, err := fig.run(sOff)
		if err != nil {
			return nil, err
		}
		off := time.Since(t0)
		t0 = time.Now()
		onOut, err := fig.run(sOn)
		if err != nil {
			return nil, err
		}
		on := time.Since(t0)
		if offOut != onOut {
			return nil, fmt.Errorf("ffwd: %s output differs between engine off and on", fig.name)
		}
		out = append(out, makeFfwdSection(fig.name, off, on))
	}

	// The loopmark sweep: a long affine counted loop per IQ size, the
	// workload shape the engine exists for.
	p := ffwd.LoopmarkProgram(2_000_000)
	var wall [2]time.Duration
	var cycles [2]uint64
	for mode, on := range []bool{false, true} {
		t0 := time.Now()
		for _, iq := range sizes {
			cfg := pipeline.DefaultConfig().WithIQSize(iq)
			cfg.FastForward = on
			m := pipeline.New(cfg, p)
			ffwd.Attach(m)
			if err := m.Run(); err != nil {
				return nil, fmt.Errorf("ffwd: loopmark iq=%d: %w", iq, err)
			}
			cycles[mode] += m.C.Cycles
		}
		wall[mode] = time.Since(t0)
	}
	if cycles[0] != cycles[1] {
		return nil, fmt.Errorf("ffwd: loopmark cycle totals differ: off %d, on %d", cycles[0], cycles[1])
	}
	return append(out, makeFfwdSection("loopmark", wall[0], wall[1])), nil
}

// progressRecord is one machine-readable sweep-progress record, emitted as
// a JSON line by -progress-json and as an SSE "progress" event by -listen.
type progressRecord struct {
	Done      int    `json:"done"`
	Total     int    `json:"total"`
	Kernel    string `json:"kernel"`
	IQ        int    `json:"iq"`
	Reuse     bool   `json:"reuse"`
	ElapsedMS int64  `json:"elapsed_ms"`
	EtaMS     int64  `json:"eta_ms"` // -1 while unknown
	// RunID correlates this progress record with the run-ledger record the
	// cell produced (-ledger). Empty when no ledger is attached or the cell
	// was served from cache/journal replay.
	RunID string `json:"run_id,omitempty"`
}

// makeProgressRecord derives one record from a Suite.Progress callback.
func makeProgressRecord(done, total int, sp experiments.Spec, r experiments.RunResult, elapsed time.Duration) progressRecord {
	rec := progressRecord{
		Done:      done,
		Total:     total,
		Kernel:    sp.Kernel,
		IQ:        sp.IQSize,
		Reuse:     sp.Reuse,
		ElapsedMS: elapsed.Milliseconds(),
		EtaMS:     -1,
		RunID:     r.RunID,
	}
	if done > 0 && elapsed > 0 {
		rec.EtaMS = time.Duration(float64(elapsed) / float64(done) * float64(total-done)).Milliseconds()
	}
	return rec
}

func (r progressRecord) eta() string {
	if r.EtaMS < 0 {
		return "?"
	}
	return (time.Duration(r.EtaMS) * time.Millisecond).Round(time.Second).String()
}

func main() {
	table := flag.Int("table", 0, "regenerate one table (1 or 2)")
	figure := flag.Int("figure", 0, "regenerate one figure (5-9)")
	ablation := flag.String("ablation", "", "run one ablation (nblt, nbltsweep, strategy or unroll)")
	extension := flag.String("extension", "", "run an extension experiment (frontends)")
	csvDir := flag.String("csv", "", "also write each figure's data as CSV into this directory")
	forcefail := flag.String("forcefail", "", "force runs of kernel[:iq] to fail, to demonstrate degraded sweeps")
	benchJSON := flag.String("benchjson", "BENCH_simcore.json", "write the throughput summary to this file (empty disables)")
	ffwdJSON := flag.String("ffwdjson", "", "run the fast-forward on/off comparison (figures + loopmark sweep) and write it to this file, instead of the report")
	ffwdFlag := flag.Bool("ffwd", false, "run every sweep with the analytic fast-forward engine (byte-identical results, less wall time)")
	progress := flag.Bool("progress", true, "report live sweep progress (points done, ETA, current kernel) on stderr")
	progressJSON := flag.String("progress-json", "", "also write JSONL progress records to this file (\"-\" = stderr)")
	listen := flag.String("listen", "", "serve live /metrics, /events, /status and pprof on this address while the sweep runs")
	linger := flag.Duration("linger", 0, "keep the -listen server up this long after the report completes")
	ledgerPath := flag.String("ledger", "", "append a provenance-stamped run-ledger record (JSONL) for every simulated cell to this file; query with reusereport")
	journal := flag.String("journal", "", "journal completed sweep cells (JSONL + per-cell CSV + mid-cell checkpoints) under this path for crash recovery")
	resume := flag.Bool("resume", false, "with -journal, resume a previous (killed) sweep: skip recorded cells, restore in-flight ones from checkpoints")
	ckptEvery := flag.Uint64("ckpt-every", 0, "with -journal, cycles between mid-cell checkpoints (0 = default 2000000)")
	sizesFlag := flag.String("sizes", "", "comma-separated IQ sizes for figures 5-8 (default 32,64,128,256)")
	flag.Parse()

	sizes := experiments.DefaultSizes
	if *sizesFlag != "" {
		sizes = nil
		for _, fld := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(fld))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "reusebench: bad -sizes %q\n", *sizesFlag)
				os.Exit(1)
			}
			sizes = append(sizes, n)
		}
	}

	if *ffwdJSON != "" {
		start := time.Now()
		secs, err := ffwdCompare(sizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reusebench:", err)
			os.Exit(1)
		}
		rec := &runstore.BenchRecord{V: runstore.BenchSchemaVersion, Kind: runstore.BenchFfwd, Ffwd: secs}
		if err := runstore.WriteBenchRecord(*ffwdJSON, rec); err != nil {
			fmt.Fprintln(os.Stderr, "reusebench:", err)
			os.Exit(1)
		}
		for _, sec := range secs {
			fmt.Printf("%-10s off %-10s on %-10s %6.1fx\n", sec.Name, sec.Off, sec.On, sec.Speedup)
		}
		fmt.Printf("(completed in %s)\n", time.Since(start).Round(time.Second))
		return
	}

	s := experiments.NewSuite()
	s.FastForward = *ffwdFlag
	var cells cellTimes
	if *benchJSON != "" {
		s.CellDone = cells.record
	}
	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "reusebench: -resume requires -journal")
		os.Exit(1)
	}
	var led *runstore.Ledger
	if *ledgerPath != "" {
		var err error
		led, err = s.AttachLedger(*ledgerPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reusebench:", err)
			os.Exit(1)
		}
		defer led.Close()
	}
	if *journal != "" {
		j, n, err := s.AttachJournal(*journal, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reusebench:", err)
			os.Exit(1)
		}
		defer j.Close()
		if *ckptEvery > 0 {
			j.CheckpointEvery = *ckptEvery
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "reusebench: journal: recovered %d completed cells from %s\n", n, *journal)
		}
	}

	var srv *obs.Server
	if *listen != "" {
		srv = obs.NewServer()
		addr, err := srv.Start(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reusebench:", err)
			os.Exit(1)
		}
		if led != nil {
			srv.SetRunSource(led.Records)
		}
		fmt.Fprintf(os.Stderr, "reusebench: obs: listening on http://%s (/metrics /events /status /dashboard /debug/pprof)\n", addr)
	}

	var progressOut io.Writer
	if *progressJSON != "" {
		if *progressJSON == "-" {
			progressOut = os.Stderr
		} else {
			f, err := os.Create(*progressJSON)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reusebench:", err)
				os.Exit(1)
			}
			defer f.Close()
			progressOut = f
		}
	}

	if *progress || progressOut != nil || srv != nil {
		human := *progress
		var sweepStart time.Time
		s.Progress = func(done, total int, sp experiments.Spec, r experiments.RunResult) {
			// Serialized by Prewarm; stderr only, so report text stays stable.
			if done == 1 {
				sweepStart = time.Now()
			}
			rec := makeProgressRecord(done, total, sp, r, time.Since(sweepStart))
			if human {
				fmt.Fprintf(os.Stderr, "\rreusebench: %d/%d points, eta %s  (%s iq=%d)\x1b[K",
					done, total, rec.eta(), sp.Kernel, sp.IQSize)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
			if progressOut != nil || srv != nil {
				data, err := json.Marshal(rec)
				if err == nil {
					if progressOut != nil {
						progressOut.Write(append(data, '\n'))
					}
					if srv != nil {
						srv.PublishEvent("progress", data)
					}
				}
			}
		}
	}
	if *forcefail != "" {
		kernel, iqSize := *forcefail, 0
		if i := strings.IndexByte(kernel, ':'); i >= 0 {
			n, err := strconv.Atoi(kernel[i+1:])
			if err != nil {
				fmt.Fprintf(os.Stderr, "reusebench: bad -forcefail %q: %v\n", *forcefail, err)
				os.Exit(1)
			}
			kernel, iqSize = kernel[:i], n
		}
		s.Sabotage = func(sp experiments.Spec) bool {
			return sp.Kernel == kernel && (iqSize == 0 || sp.IQSize == iqSize)
		}
	}
	if srv != nil {
		reg := &telemetry.Registry{}
		s.RegisterMetrics(reg)
		publish := func() {
			srv.Publish(obs.Sample{
				Cycle:   s.TotalCycles(),
				Metrics: reg.TypedSnapshot(),
				Status:  s.Sweep(),
			})
		}
		publish() // readyz goes 200 before the first sweep point lands
		stop := make(chan struct{})
		var tick sync.WaitGroup
		tick.Add(1)
		go func() {
			defer tick.Done()
			t := time.NewTicker(500 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					publish()
				case <-stop:
					return
				}
			}
		}()
		defer func() {
			close(stop)
			tick.Wait()
			publish() // final state for late scrapes
			if *linger > 0 {
				fmt.Fprintf(os.Stderr, "reusebench: obs: lingering %s for late scrapes\n", *linger)
				time.Sleep(*linger)
			}
			srv.Close()
		}()
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	all := *table == 0 && *figure == 0 && *ablation == "" && *extension == ""

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "reusebench:", err)
		os.Exit(1)
	}
	writeCSV := func(name string, write func(*os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := write(f); err != nil {
			fail(err)
		}
	}
	var sections []runstore.BenchSection
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		sections = append(sections, runstore.BenchSection{
			Name: name, Wall: d.Round(time.Millisecond).String(), WallNS: d.Nanoseconds(),
		})
	}

	if all || *table == 1 {
		timed("table1", func() { fmt.Println(experiments.Table1()) })
	}
	if all || *table == 2 {
		timed("table2", func() { fmt.Println(experiments.Table2()) })
	}
	if all || *figure == 5 {
		timed("figure5", func() {
			f, err := s.Figure5(sizes)
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
			writeCSV("figure5.csv", func(w *os.File) error { return f.WriteCSV(w) })
		})
	}
	if all || *figure == 6 {
		timed("figure6", func() {
			f, err := s.Figure6(sizes)
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
			writeCSV("figure6.csv", func(w *os.File) error { return f.WriteCSV(w) })
		})
	}
	if all || *figure == 7 {
		timed("figure7", func() {
			f, err := s.Figure7(sizes)
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
			writeCSV("figure7.csv", func(w *os.File) error { return f.WriteCSV(w) })
		})
	}
	if all || *figure == 8 {
		timed("figure8", func() {
			f, err := s.Figure8(sizes)
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
			writeCSV("figure8.csv", func(w *os.File) error { return f.WriteCSV(w) })
		})
	}
	if all || *figure == 9 {
		timed("figure9", func() {
			f, err := s.Figure9()
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
			writeCSV("figure9.csv", func(w *os.File) error { return f.WriteCSV(w) })
		})
	}
	if all || *ablation == "nblt" {
		timed("ablation_nblt", func() {
			a, err := s.AblationNBLT()
			if err != nil {
				fail(err)
			}
			fmt.Println(a)
		})
	}
	if all || *ablation == "strategy" {
		timed("ablation_strategy", func() {
			a, err := s.AblationStrategy()
			if err != nil {
				fail(err)
			}
			fmt.Println(a)
		})
	}
	if all || *ablation == "nbltsweep" {
		timed("ablation_nbltsweep", func() {
			sw, err := s.SweepNBLTSizes([]int{0, 2, 4, 8, 16})
			if err != nil {
				fail(err)
			}
			fmt.Println(sw)
		})
	}
	if all || *ablation == "unroll" {
		timed("ablation_unroll", func() {
			a, err := s.AblationUnroll(4)
			if err != nil {
				fail(err)
			}
			fmt.Println(a)
		})
	}
	if all || *extension == "frontends" {
		timed("extension_frontends", func() {
			c, err := s.CompareFrontEnds()
			if err != nil {
				fail(err)
			}
			fmt.Println(c)
		})
	}

	if *benchJSON != "" {
		wall := time.Since(start)
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		th := runstore.BenchThroughput{
			SimulatedCycles: s.TotalCycles(),
			WallNS:          wall.Nanoseconds(),
			Wall:            wall.Round(time.Millisecond).String(),
		}
		if th.SimulatedCycles > 0 {
			th.CyclesPerSec = float64(th.SimulatedCycles) / wall.Seconds()
			th.NSPerCycle = float64(wall.Nanoseconds()) / float64(th.SimulatedCycles)
			th.AllocsPerCycle = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(th.SimulatedCycles)
		}
		rec := &runstore.BenchRecord{
			V: runstore.BenchSchemaVersion, Kind: runstore.BenchSimcore,
			Throughput: &th, Sections: append(sections, cells.sections()...),
		}
		if err := runstore.WriteBenchRecord(*benchJSON, rec); err != nil {
			fail(err)
		}
	}
	fmt.Printf("(completed in %s)\n", time.Since(start).Round(time.Second))
}
