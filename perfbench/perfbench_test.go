package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestRun runs short untraced and traced small-iq runs and checks that each
// is correct, reports exactly the metrics BENCHMARK.json names, and leaves
// git status --porcelain unchanged.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	status := func() string {
		out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
		if err != nil {
			t.Skipf("git status: %v", err)
		}
		return string(out)
	}
	before := status()

	for trace, names := range [][]struct{ Name string }{spec.EndToEnd, spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "small-iq", "--seed", "3", "--seconds", "1",
			"--trace", string(rune('0' + trace)), "--root", root, "--scratch", filepath.Join(root, ".bench_build")}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %d: correct=%v failed=%d of %d\n%s", trace, res.Correct, res.Failed, res.Attempted, stderr.String())
		}
		var want, got []string
		for _, n := range names {
			want = append(want, n.Name)
		}
		for n := range res.Metrics {
			got = append(got, n)
		}
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %d: metrics %v, BENCHMARK.json names %v", trace, got, want)
		}
	}
	if after := status(); after != before {
		t.Errorf("git status changed:\nbefore:\n%safter:\n%s", before, after)
	}
}

func TestClassify(t *testing.T) {
	const pl = "reuseiq/internal/pipeline.(*Machine)."
	for _, tc := range []struct {
		stack []string
		want  []string
	}{
		{[]string{"reuseiq/internal/lsq.(*LSQ).SearchForLoad", pl + "tryIssueEntry", pl + "issue", pl + "Step"}, []string{"lsq"}},
		{[]string{"runtime.asyncPreempt", pl + "fetch", pl + "Step"}, []string{"pipeline.fetch"}},
		{[]string{"slices.insertionSortCmpFunc", "slices.SortFunc", pl + "issue"}, []string{"pipeline.sort", "slices"}},
		{[]string{pl + "issue.func1", "slices.pdqsortCmpFunc", pl + "issue"}, []string{"pipeline.sort", "pipeline.issue"}},
		{[]string{"reuseiq/internal/rob.(*ROB).Walk", "reuseiq/internal/lockstep.(*Checker).Check", pl + "Step"}, []string{"lockstep"}},
		{[]string{"reuseiq/internal/lockstep.(*Checker).Check", pl + "Step", "reuseiq/internal/flightrec.(*Session).Seek"}, []string{"flightrec"}},
		{[]string{"runtime.duffcopy", pl + "dispatchOne", pl + "dispatch"}, []string{"runtime.copy"}},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, []string{"runtime.gc"}},
		{[]string{pl + "RunBreakable"}, []string{"pipeline.other"}},
	} {
		if got := classify(tc.stack); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("classify(%v) = %v, want %v", tc.stack, got, tc.want)
		}
	}
}
