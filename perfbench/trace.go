package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"reuseiq/internal/experiments"
	"reuseiq/internal/runstore"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the public API.
type span struct {
	Name   string  `json:"name"`
	Label  string  `json:"label,omitempty"`
	Parent int     `json:"parent"` // 1-based index of the enclosing span, 0 at top level
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Cycles uint64  `json:"cycles,omitempty"` // simulated cycles, for cell spans
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name, label string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Label: label, Parent: t.parent(), Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// parent is the 1-based index of the innermost open span, 0 if none.
func (t *tracer) parent() int {
	if n := len(t.open); n > 0 {
		return t.open[n-1] + 1
	}
	return 0
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.t0).Seconds()
	t.open = t.open[:len(t.open)-1]
}

// add records a finished span timed by the caller (a cell the Suite ran
// inside one of the benchmark's calls).
func (t *tracer) add(name, label string, start, end time.Time, cycles uint64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Label: label, Parent: t.parent(),
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(), Cycles: cycles})
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.seconds())
		}
	}
	return ds
}

func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// attachLedger gives s a run ledger in dir when the run collects modeled
// counters; nil otherwise.
func (b *bench) attachLedger(s *experiments.Suite, dir string) (*runstore.Ledger, error) {
	if !b.collect {
		return nil, nil
	}
	return s.AttachLedger(dir + "/ledger.jsonl")
}

// modeledCounters are the ledger counters a pass sums per workload: the raw
// counts behind the per-layer metrics.
var modeledCounters = []string{
	"sim.cycles", "sim.commits", "sim.gated_cycles", "sim.mispredicts",
	"commit.loads", "commit.branches",
	"lsq.searches", "lsq.forwards", "lsq.conflict_stalls",
	"iq.issue_reads",
	"reuse.bufferings", "reuse.revokes",
	"nblt.lookups", "nblt.hits",
	"dl1.accesses", "dl1.misses",
}

// sumCounters closes led and sums the modeled counters over its records.
func sumCounters(led *runstore.Ledger) (map[string]uint64, error) {
	if led == nil {
		return nil, nil
	}
	sums := map[string]uint64{}
	for _, rec := range led.Records() {
		for _, name := range modeledCounters {
			v, _ := rec.Metrics.Counter(name)
			sums[name] += v
		}
	}
	return sums, led.Close()
}

// shareBuckets are the profile buckets reported as <bucket>.share.
var shareBuckets = []string{
	"lsq", "isa", "core", "mem", "bpred", "rename", "rob", "fu", "power",
	"telemetry", "lockstep", "flightrec", "snapshot", "runstore",
	"pipeline.fetch", "pipeline.decode", "pipeline.dispatch", "pipeline.issue",
	"pipeline.writeback", "pipeline.commit", "pipeline.other", "pipeline.sort",
	"runtime.copy", "runtime.gc",
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(b *bench, passes []passResult, wall, allocsPerCycle float64, profile string) (map[string]metric, error) {
	shares, cpuSecs, err := profileShares(profile)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	for _, name := range shareBuckets {
		m[name+".share"] = metric{shares[name], "fraction"}
	}
	t := b.tr
	n := float64(len(passes))
	first := passes[0]
	c := first.counters
	ratio := func(a, b string) float64 {
		if c[b] == 0 {
			return 0
		}
		return float64(c[a]) / float64(c[b])
	}
	count := func(name string) metric { return metric{float64(c[name]), "count"} }
	m["lsq.searches"] = count("lsq.searches")
	m["lsq.conflict_stalls"] = count("lsq.conflict_stalls")
	m["lsq.forwards"] = count("lsq.forwards")
	m["lsq.searches_per_load"] = metric{ratio("lsq.searches", "commit.loads"), "ratio"}
	m["iq.issue_reads"] = count("iq.issue_reads")
	m["reuse.bufferings"] = count("reuse.bufferings")
	m["reuse.revoke_ratio"] = metric{ratio("reuse.revokes", "reuse.bufferings"), "ratio"}
	m["nblt.hit_ratio"] = metric{ratio("nblt.hits", "nblt.lookups"), "ratio"}
	m["sim.gated_cycles"] = count("sim.gated_cycles")
	m["dl1.miss_ratio"] = metric{ratio("dl1.misses", "dl1.accesses"), "ratio"}
	m["bpred.mispredict_ratio"] = metric{ratio("sim.mispredicts", "commit.branches"), "ratio"}

	cells := t.durations("cell")
	m["experiments.cell_s.p50"] = metric{median(cells), "s"}
	m["experiments.cell_s.max"] = metric{quantile(cells, 1), "s"}
	suiteCells := 0
	for lbl := range first.cells {
		if !strings.HasPrefix(lbl, "run/") {
			suiteCells++
		}
	}
	m["experiments.cells"] = metric{float64(suiteCells), "count"}
	m["experiments.cache_hits"] = metric{float64(first.cacheHits), "count"}
	m["experiments.journal_checkpoints"] = metric{float64(first.journalCkpts), "count"}
	m["experiments.resume_s"] = metric{t.total("experiments.resume") / n, "s"}
	m["compiler.compile_s"] = metric{median(t.durations("compiler.compile")), "s"}
	m["power.analyze_s"] = metric{shares["power"] * cpuSecs / n, "s"}

	// The first pass's seeks: with 128 of them, p92 is the highest
	// percentile with at least ten samples beyond it.
	seeks := t.durations("flightrec.seek")
	seeks = seeks[:min(len(seeks), len(experiments.KernelNames())*2*seeksPerRecording)]
	m["flightrec.seek_s.p50"] = metric{median(seeks), "s"}
	m["flightrec.seek_s.p92"] = metric{quantile(seeks, 0.92), "s"}
	m["flightrec.load_s"] = metric{t.total("flightrec.load") / n, "s"}
	m["flightrec.finish_s"] = metric{t.total("flightrec.finish") / n, "s"}
	m["flightrec.checkpoints"] = metric{float64(first.flightCkpts), "count"}
	m["flightrec.bytes"] = metric{float64(first.flightBytes), "bytes"}
	m["runstore.append_s.p50"] = metric{median(t.durations("runstore.append")), "s"}
	m["runstore.load_s"] = metric{t.total("runstore.load") / n, "s"}
	m["runstore.sentinel_s"] = metric{t.total("runstore.sentinel") / n, "s"}

	m["allocs_per_cycle"] = metric{allocsPerCycle, "1/cycle"}
	m["trace.wall_s"] = metric{wall, "s"}

	// Host cost per simulated cycle of each kernel and queue size, over
	// the cells this workload simulated (0 where it simulated none).
	secs, cycles := map[string]float64{}, map[string]uint64{}
	for _, s := range t.spans {
		if s.Name == "cell" {
			key := cellKernelIQ(s.Label)
			secs[key] += s.seconds()
			cycles[key] += s.Cycles
		}
	}
	for _, k := range experiments.KernelNames() {
		for _, iq := range experiments.DefaultSizes {
			key := fmt.Sprintf("%s.iq%d", k, iq)
			v := 0.0
			if cycles[key] > 0 {
				v = 1e9 * secs[key] / float64(cycles[key])
			}
			m["pipeline.ns_per_cycle."+key] = metric{v, "ns"}
		}
	}
	return m, nil
}

// profileShares buckets the CPU profile's samples (go tool pprof -traces) by
// the layer of their leaf frame and returns each bucket's share of all
// samples plus the profile's total CPU seconds.
//
// A leaf in reuseiq/internal/<pkg> counts for <pkg>, except that
// internal/pipeline is split by the stage method on the stack (fetch,
// decode, dispatch, issue, writeback, commit; "other" outside them).
// runtime.copy is struct copying (duffcopy, memmove), runtime.gc any sample
// with a collector frame on its stack. pipeline.sort overlaps the others:
// samples inside slices.* under the issue stage (the ready-list age sort).
func profileShares(path string) (map[string]float64, float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	weights := map[string]float64{}
	var total float64
	var stack []string
	var value float64
	flush := func() {
		if len(stack) == 0 {
			return
		}
		total += value
		for _, bucket := range classify(stack) {
			weights[bucket] += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if !strings.HasPrefix(line, " ") {
			continue // header
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, 0, fmt.Errorf("go tool pprof: sample value %q: %w", fields[0], err)
			}
			value = d.Seconds()
			line = strings.TrimSpace(line)[len(fields[0]):]
		}
		stack = append(stack, funcName(line))
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	for k, v := range weights {
		if total > 0 {
			shares[k] = v / total
		}
	}
	return shares, total, nil
}

// funcName strips a -traces frame line down to the function name.
func funcName(line string) string {
	line = strings.TrimSpace(line)
	line = strings.TrimSuffix(line, " (inline)")
	if i := strings.IndexByte(line, '['); i >= 0 {
		line = line[:i] // generic instantiation
	}
	return line
}

// pkgOf returns the package path of a function name such as
// reuseiq/internal/lsq.(*LSQ).SearchForLoad.
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

var pipelineStages = map[string]string{
	"fetch": "fetch", "decode": "decode", "dispatch": "dispatch", "reuseDispatch": "dispatch",
	"issue": "issue", "writeback": "writeback", "commit": "commit",
}

const internalPrefix = "reuseiq/internal/"

// observers are the optional layers charged with everything they call: the
// outermost observer frame on a sample's stack takes the sample, so the
// lockstep checker's walks over the ROB count for lockstep, a flight
// recorder seek's replay (and the checker verifying it) for flightrec, and
// the registry walk of a ledger append for runstore.
var observers = map[string]bool{
	"telemetry": true, "lockstep": true, "flightrec": true, "snapshot": true, "runstore": true,
}

// classify returns the buckets a sample (leaf first) counts for.
func classify(stack []string) []string {
	for len(stack) > 1 && stack[0] == "runtime.asyncPreempt" {
		stack = stack[1:] // a preemption point, not work of its own
	}
	var buckets []string
	stage, observer := "", ""
	sorting := false
	for _, fn := range stack {
		if name, ok := strings.CutPrefix(fn, internalPrefix+"pipeline.(*Machine)."); ok && stage == "" {
			stage = pipelineStages[name]
		}
		pkg := strings.TrimPrefix(pkgOf(fn), internalPrefix)
		if observers[pkg] {
			observer = pkg
		}
		if pkg == "slices" {
			sorting = true
		}
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.gcAssistAlloc") ||
			fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" || fn == "runtime.GC" {
			return []string{"runtime.gc"}
		}
	}
	if observer != "" {
		return []string{observer}
	}
	if sorting && stage == "issue" {
		buckets = append(buckets, "pipeline.sort")
	}
	leaf := stack[0]
	switch pkg := pkgOf(leaf); {
	case pkg == internalPrefix+"pipeline":
		if stage == "" {
			stage = "other"
		}
		buckets = append(buckets, "pipeline."+stage)
	case strings.HasPrefix(pkg, internalPrefix):
		buckets = append(buckets, strings.TrimPrefix(pkg, internalPrefix))
	case leaf == "runtime.duffcopy" || leaf == "runtime.memmove" || leaf == "runtime.typedmemmove":
		buckets = append(buckets, "runtime.copy")
	default:
		buckets = append(buckets, pkg)
	}
	return buckets
}

// cellKernelIQ maps a cell label (kernel/iqN/...) to "kernel.iqN".
func cellKernelIQ(label string) string {
	parts := strings.SplitN(label, "/", 3)
	if len(parts) < 2 {
		return label
	}
	return parts[0] + "." + parts[1]
}
