// Command perfbench is the repository benchmark. It drives the simulator
// in-process through the public APIs of internal/experiments,
// internal/pipeline, internal/flightrec, internal/runstore and
// internal/lockstep, one simulation at a time, checks every output against a
// reference, and prints one JSON result line as the last line of standard
// output. README.md describes the workloads and how to read a traced run.
//
//	bash perfbench/run.sh --workload report --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 a
// separate traced run records spans around the public calls and a CPU
// profile, and the result holds the per-layer metrics. --regen rewrites
// testdata/reference.json from the current simulator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"reuseiq/internal/prog"
)

// workload is one benchmark input set.
type workload struct {
	name string
	// setup compiles every program the workload needs and runs one untimed
	// warm-up cell, so lazy set-up is not charged to the first timed pass.
	setup func(b *bench) error
	// pass runs the timed work once, checking its outputs through b.chk.
	// dir is an empty scratch directory for recordings, ledgers and
	// journals, removed after the pass.
	pass func(b *bench, dir string) (passResult, error)
}

var benchWorkloads = []workload{
	{"report", setupReport, passReport},
	{"small-iq", setupSmallIQ, passSmallIQ},
	{"observed", setupObserved, passObserved},
}

// setupReps is how often set-up runs per process; setup_s is the median.
const setupReps = 5

// passResult is what one pass simulated and reported.
type passResult struct {
	// insts and cycles count the committed instructions and cycles of the
	// cells actually simulated, not those served from a cache.
	insts, cycles uint64
	// Paper averages, as fractions: Figure 5 gated rate, Figure 7 power
	// saving and Figure 8 IPC loss over the workload's cells.
	gated, saving, ipcLoss float64
	// cells is every simulated cell's outcome, checked against the
	// reference.
	cells map[string]cellRef
	// counters sums the modeled counters of the cells (collect mode only).
	counters map[string]uint64
	// Layer figures only the traced run reports.
	cacheHits    int
	journalCkpts uint64
	flightCkpts  uint64
	flightBytes  int64
}

func (r *passResult) addCell(label string, c cellRef) {
	if r.cells == nil {
		r.cells = map[string]cellRef{}
	}
	r.cells[label] = c
	r.insts += c.Commits
	r.cycles += c.Cycles
}

// bench is the state shared by set-up and passes of one process.
type bench struct {
	root    string // repository checkout (RESULTS.txt, perfbench/testdata)
	rng     *rand.Rand
	ref     *reference // nil while regenerating it
	chk     checker
	tr      *tracer // nil unless traced
	collect bool    // attach ledgers and sum modeled counters
	progs   map[string]*prog.Program
	// sections maps each expected report section's title to its text.
	sections map[string]string
}

// checker counts checked operations and failures.
type checker struct {
	attempted, failed int
	log               io.Writer
}

func (c *checker) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "perfbench: FAIL: "+format+"\n", args...)
	}
	return ok
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: report, small-iq or observed")
	seed := fs.Int64("seed", 1, "workload seed: picks the small-iq cell order and the observed seek targets")
	seconds := fs.Float64("seconds", 20, "measure whole passes for this long (at least one pass)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
	root := fs.String("root", ".", "repository checkout root")
	scratch := fs.String("scratch", ".bench_build", "directory for scratch files and traced-run output")
	regen := fs.Bool("regen", false, "rewrite testdata/reference.json from the current simulator and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*scratch, "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b := &bench{root: *root, rng: rand.New(rand.NewSource(*seed)), chk: checker{log: stderr}}
	if b.sections, err = loadSections(*root); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *regen {
		if err := regenerate(b, tmp); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload report|small-iq|observed and --trace 0|1 (got %q, %d)\n", *name, *trace)
		return 2
	}
	if b.ref, err = loadReference(*root); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *trace == 1 {
		b.tr = newTracer()
		b.collect = true
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	m, err := measure(b, w, *seconds, tmp, *scratch, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(result{
		Correct:   b.chk.failed == 0,
		Attempted: b.chk.attempted,
		Failed:    b.chk.failed,
		Metrics:   m,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// measure runs set-up setupReps times, then whole passes until seconds have
// elapsed (at least one), and returns the end-to-end metrics or, when
// traced, the per-layer ones.
func measure(b *bench, w *workload, seconds float64, tmp, scratch string, stdout io.Writer) (map[string]metric, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		sp := b.tr.begin("setup", w.name)
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b.tr.end(sp)
	}

	var prof *os.File
	if b.tr != nil {
		var err error
		if prof, err = os.Create(filepath.Join(scratch, w.name+".cpu.pprof")); err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	var walls, cpus, rates, rss []float64
	var passes []passResult
	start := time.Now()
	for i := 0; ; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("pass-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		resetPeakRSS()
		c0 := cpuSeconds()
		sp := b.tr.begin("pass", w.name)
		t0 := time.Now()
		r, err := w.pass(b, dir)
		wall := time.Since(t0).Seconds()
		b.tr.end(sp)
		cpu := cpuSeconds() - c0
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", w.name, i, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		b.checkReference(w.name, r)
		walls, cpus = append(walls, wall), append(cpus, cpu)
		rss = append(rss, peakRSSMB())
		rates = append(rates, float64(r.insts)/wall)
		passes = append(passes, r)
		if time.Since(start).Seconds()+wall > seconds {
			break
		}
	}
	runtime.ReadMemStats(&mem1)
	fmt.Fprintf(stdout, "perfbench: %d passes, pass wall %s s, pass peak rss %s MB\n", len(walls), fmtList(walls), fmtList(rss))

	if b.tr != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
		var cycles uint64
		for _, p := range passes {
			cycles += p.cycles
		}
		m, err := layerMetrics(b, passes, median(walls), float64(mem1.Mallocs-mem0.Mallocs)/float64(cycles), prof.Name())
		if err != nil {
			return nil, err
		}
		spans := filepath.Join(scratch, w.name+".spans.json")
		if err := b.tr.write(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "perfbench: traced run: profile %s, spans %s\n", prof.Name(), spans)
		return m, nil
	}

	first := passes[0]
	return map[string]metric{
		"wall_s":           {median(walls), "s"},
		"cpu_s":            {median(cpus), "s"},
		"sim_insts_per_s":  {median(rates), "1/s"},
		"peak_rss_mb":      {median(rss), "MB"},
		"setup_s":          {median(setups), "s"},
		"gated_pct":        {100 * first.gated, "%"},
		"power_saving_pct": {100 * first.saving, "%"},
		"ipc_loss_pct":     {100 * first.ipcLoss, "%"},
	}, nil
}

// checkReference compares a pass's simulated cells (and, when collected,
// its modeled counters) with the reference: a simulator-speed change must
// leave every simulated statistic identical.
func (b *bench) checkReference(name string, r passResult) {
	if b.ref == nil {
		return
	}
	want := b.ref.Cells[name]
	b.chk.check(len(r.cells) == len(want), "%s: %d cells simulated, reference has %d", name, len(r.cells), len(want))
	for _, label := range sortedKeys(r.cells) {
		ref, ok := want[label]
		b.chk.check(ok && r.cells[label] == ref, "%s: cell %s simulated %+v, reference %+v (present: %v)",
			name, label, r.cells[label], ref, ok)
	}
	if r.counters == nil {
		return
	}
	for _, c := range sortedKeys(b.ref.Counters[name]) {
		b.chk.check(r.counters[c] == b.ref.Counters[name][c], "%s: counter %s = %d, reference %d",
			name, c, r.counters[c], b.ref.Counters[name][c])
	}
}

// loadSections reads the expected report sections: every block of
// RESULTS.txt, keyed by its title line, plus the benchmark's own copy of
// any section RESULTS.txt lacks (the NBLT size sweep).
func loadSections(root string) (map[string]string, error) {
	secs := map[string]string{}
	for _, path := range []string{
		filepath.Join(root, "perfbench", "testdata", "sections.txt"),
		filepath.Join(root, "RESULTS.txt"),
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for _, block := range strings.Split(string(data), "\n\n") {
			block = strings.Trim(block, "\n")
			if block == "" || strings.HasPrefix(block, "(completed") {
				continue
			}
			title, _, _ := strings.Cut(block, "\n")
			secs[title] = block
		}
	}
	return secs, nil
}

// checkSection compares one rendered report section with its expected text.
func (b *bench) checkSection(text string) {
	text = strings.Trim(text, "\n")
	title, _, _ := strings.Cut(text, "\n")
	want, ok := b.sections[title]
	if !b.chk.check(ok, "report: section %q has no expected text", title) {
		return
	}
	b.chk.check(text == want, "report: section %q differs from RESULTS.txt:\n%s\nwant:\n%s", title, text, want)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS collects garbage, returns free memory to the OS and restarts
// the kernel's resident-set high-water mark (Linux clear_refs), so that the
// next peakRSSMB measures one pass from a clean start. Where the mark cannot
// be reset, peakRSSMB reports the process's peak so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM, in KiB) from
// /proc/self/status, or the process peak from getrusage where that file is
// missing.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
