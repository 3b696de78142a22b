package pipeline

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reuseiq/internal/asm"
	"reuseiq/internal/chaos"
	"reuseiq/internal/compiler"
	"reuseiq/internal/prog"
	"reuseiq/internal/workloads"
)

var updateCounters = flag.Bool("update-counters", false, "rewrite testdata/counters.golden")

// subwordBlockSrc stores a byte into the word each iteration then loads the
// whole word: the load overlaps the store with a different size, so it
// cannot forward and waits until the store commits.
const subwordBlockSrc = `
	.data
buf:	.space 8
	.text
	la   $r5, buf
	li   $r3, 300
loop:	sb   $r3, 1($r5)
	lw   $r2, 0($r5)
	add  $r4, $r4, $r2
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`

// counterCase is one pinned run: a program under a configuration.
type counterCase struct {
	name string
	prog func() (*prog.Program, error)
	cfg  Config
}

func kernelProg(name string, distribute bool) func() (*prog.Program, error) {
	return func() (*prog.Program, error) {
		k, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", name)
		}
		ir := k.Prog
		if distribute {
			ir = compiler.Distribute(ir)
		}
		p, _, err := compiler.Compile(ir)
		return p, err
	}
}

func asmProg(src string) func() (*prog.Program, error) {
	return func() (*prog.Program, error) { return asm.Assemble(src) }
}

func counterCases() []counterCase {
	var cs []counterCase
	for _, k := range workloads.All() {
		for _, iq := range []int{32, 256} {
			reuse := DefaultConfig().WithIQSize(iq)
			base := reuse
			base.Reuse.Enabled = false
			cs = append(cs,
				counterCase{fmt.Sprintf("%s/iq%d/reuse", k.Name, iq), kernelProg(k.Name, false), reuse},
				counterCase{fmt.Sprintf("%s/iq%d/baseline", k.Name, iq), kernelProg(k.Name, false), base},
				counterCase{fmt.Sprintf("%s/iq%d/distributed", k.Name, iq), kernelProg(k.Name, true), reuse},
			)
		}
	}
	for _, c := range []struct {
		kernel string
		iq     int
		seed   int64
	}{{"aps", 256, 42}, {"wss", 128, 99}} {
		cfg := DefaultConfig().WithIQSize(c.iq)
		cfg.Chaos = chaos.DefaultConfig(c.seed)
		cs = append(cs, counterCase{fmt.Sprintf("%s/iq%d/chaos%d", c.kernel, c.iq, c.seed), kernelProg(c.kernel, false), cfg})
	}
	for _, p := range []struct{ name, src string }{
		{"storebyte", storeByteSrc}, {"loopcarried", loopCarriedSrc}, {"subwordblock", subwordBlockSrc},
	} {
		cs = append(cs,
			counterCase{"asm/" + p.name + "/reuse", asmProg(p.src), DefaultConfig()},
			counterCase{"asm/" + p.name + "/baseline", asmProg(p.src), BaselineConfig()},
		)
	}
	return cs
}

// TestCounterGolden pins every counter RegisterMetrics reports — including
// the ones the paper's figures never print directly, such as regfile.reads
// and lsq.searches, which feed the power model — for the paper kernels at
// the smallest and largest issue queue, original, baseline and
// loop-distributed, under fault injection, and for the memory-ordering
// programs. A simulator speedup must leave every line unchanged.
// Regenerate deliberately with go test ./internal/pipeline -run
// TestCounterGolden -update-counters.
func TestCounterGolden(t *testing.T) {
	cases := counterCases()
	got := make([]string, len(cases))
	t.Run("run", func(t *testing.T) {
		for i, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				p, err := c.prog()
				if err != nil {
					t.Fatal(err)
				}
				m := New(c.cfg, p)
				if err := m.Run(); err != nil {
					t.Fatalf("%v\n%s", err, m.StateSummary())
				}
				got[i] = "== " + c.name + "\n" + m.StatsSet().String()
			})
		}
	})
	if t.Failed() {
		return
	}
	path := filepath.Join("testdata", "counters.golden")
	out := strings.Join(got, "")
	if *updateCounters {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update-counters)", err)
	}
	wantSec := splitSections(string(want))
	gotSec := splitSections(out)
	for _, c := range cases {
		w, ok := wantSec[c.name]
		if !ok {
			t.Errorf("%s: missing from the golden", c.name)
			continue
		}
		if g := gotSec[c.name]; g != w {
			t.Errorf("%s: counters differ from the golden:\n%s", c.name, lineDiff(w, g))
		}
	}
	if len(wantSec) != len(cases) {
		t.Errorf("golden has %d sections, want %d", len(wantSec), len(cases))
	}
}

// splitSections maps each "== name" header to the lines below it.
func splitSections(s string) map[string]string {
	out := map[string]string{}
	for _, sec := range strings.Split(s, "== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		out[name] = body
	}
	return out
}

// lineDiff renders the lines of want and got that differ, by position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "  want %q\n  got  %q\n", wl, gl)
		}
	}
	return b.String()
}
