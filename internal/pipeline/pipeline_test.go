package pipeline

import (
	"testing"

	"reuseiq/internal/asm"
	"reuseiq/internal/interp"
	"reuseiq/internal/isa"
	"reuseiq/internal/prog"
)

// runInterp executes p on the golden-model interpreter.
func runInterp(t *testing.T, p *prog.Program) *interp.Machine {
	t.Helper()
	g := interp.New(p)
	if err := g.Run(); err != nil {
		t.Fatalf("interp: %v", err)
	}
	return g
}

// runPipe executes p on the pipeline under cfg.
func runPipe(t *testing.T, cfg Config, p *prog.Program) *Machine {
	t.Helper()
	m := New(cfg, p)
	if err := m.Run(); err != nil {
		t.Fatalf("pipeline: %v\n%s", err, m.stateSummary())
	}
	return m
}

// checkArchEqual compares the pipeline's committed architectural state with
// the interpreter's.
func checkArchEqual(t *testing.T, label string, g *interp.Machine, m *Machine) {
	t.Helper()
	for i := 1; i < isa.NumIntRegs; i++ {
		if i == 1 {
			continue // $at is a scratch register, defined only transiently
		}
		if g.State.Int[i] != m.ArchInt(i) {
			t.Errorf("%s: $r%d = %d, interp %d", label, i, m.ArchInt(i), g.State.Int[i])
		}
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		gv, mv := g.State.FP[i], m.ArchFP(i)
		if gv != mv && !(gv != gv && mv != mv) { // NaN-tolerant
			t.Errorf("%s: $f%d = %v, interp %v", label, i, mv, gv)
		}
	}
	if !g.State.Mem.Equal(m.Mem) {
		t.Errorf("%s: final memory differs from interpreter", label)
	}
}

// differential runs src on the interpreter, the baseline pipeline, and the
// reuse pipeline, requiring identical architectural outcomes, and returns
// the reuse machine for further checks.
func differential(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	g := runInterp(t, p)
	base := runPipe(t, BaselineConfig(), p)
	checkArchEqual(t, "baseline", g, base)
	reuse := runPipe(t, DefaultConfig(), p)
	checkArchEqual(t, "reuse", g, reuse)
	if base.C.Commits != reuse.C.Commits {
		t.Errorf("commit counts differ: baseline %d, reuse %d", base.C.Commits, reuse.C.Commits)
	}
	return reuse
}

func TestStraightLine(t *testing.T) {
	m := differential(t, `
	li   $r2, 7
	li   $r3, 5
	add  $r4, $r2, $r3
	sub  $r5, $r2, $r3
	mul  $r6, $r2, $r3
	halt
	`)
	if m.ArchInt(6) != 35 {
		t.Errorf("r6 = %d", m.ArchInt(6))
	}
}

func TestTightLoopGates(t *testing.T) {
	m := differential(t, `
	li   $r2, 0
	li   $r3, 2000
loop:	add  $r2, $r2, $r3
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`)
	if m.ArchInt(2) != 2001000 {
		t.Errorf("sum = %d", m.ArchInt(2))
	}
	if m.Ctl.S.Promotions == 0 {
		t.Fatal("tight loop never promoted to code reuse")
	}
	if m.C.GatedCycles == 0 {
		t.Fatal("front end never gated")
	}
	if m.GatedFraction() < 0.5 {
		t.Errorf("gated fraction = %.2f, want > 0.5 for a 2000-iteration tight loop", m.GatedFraction())
	}
	if m.C.ReuseRenames == 0 {
		t.Error("no instances supplied by the reuse pointer")
	}
}

func TestBaselineNeverGates(t *testing.T) {
	p := asm.MustAssemble(`
	li $r3, 100
l:	addi $r3, $r3, -1
	bne $r3, $zero, l
	halt
	`)
	m := runPipe(t, BaselineConfig(), p)
	if m.C.GatedCycles != 0 || m.Ctl.S.Detections != 0 {
		t.Errorf("baseline gated %d cycles, detected %d loops", m.C.GatedCycles, m.Ctl.S.Detections)
	}
}

func TestLoopWithMemory(t *testing.T) {
	m := differential(t, `
	.data
a:	.space 4000
	.text
	la   $r5, a
	li   $r3, 1000
	li   $r2, 0
loop:	sw   $r2, 0($r5)
	addi $r5, $r5, 4
	addi $r2, $r2, 3
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`)
	a := m.Prog.Symbols["a"]
	if got := m.Mem.ReadI32(a + 4*999); got != 3*999 {
		t.Errorf("a[999] = %d", got)
	}
	if m.Ctl.S.Promotions == 0 {
		t.Error("memory loop never promoted")
	}
}

// loopCarriedSrc loads, in each iteration, what the previous iteration
// stored: store-to-load forwarding and conservative disambiguation inside
// the reused loop body.
const loopCarriedSrc = `
	.data
cell:	.space 4
	.text
	la   $r5, cell
	li   $r3, 500
loop:	lw   $r2, 0($r5)
	addi $r2, $r2, 2
	sw   $r2, 0($r5)
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`

func TestLoopCarriedDependenceThroughMemory(t *testing.T) {
	m := differential(t, loopCarriedSrc)
	if got := m.Mem.ReadI32(m.Prog.Symbols["cell"]); got != 1000 {
		t.Errorf("cell = %d", got)
	}
	if m.LSQ.Forwards == 0 {
		t.Error("no store-to-load forwarding occurred")
	}
}

func TestNestedLoopsOuterNonBufferable(t *testing.T) {
	m := differential(t, `
	li   $r2, 0        # acc
	li   $r6, 50       # outer count
outer:	li   $r3, 40       # inner count
inner:	addi $r2, $r2, 1
	addi $r3, $r3, -1
	bne  $r3, $zero, inner
	addi $r6, $r6, -1
	bne  $r6, $zero, outer
	halt
	`)
	if m.ArchInt(2) != 2000 {
		t.Errorf("acc = %d", m.ArchInt(2))
	}
	if m.Ctl.S.Promotions == 0 {
		t.Error("inner loop never promoted")
	}
	// The outer loop must end up in the NBLT after an inner loop is
	// detected during its buffering.
	if m.Ctl.S.RevokesInner == 0 {
		t.Error("outer loop buffering was never revoked by inner-loop detection")
	}
	if m.Ctl.NBLT().Inserts == 0 {
		t.Error("nothing was registered in the NBLT")
	}
}

func TestLoopWithProcedureCall(t *testing.T) {
	m := differential(t, `
	li   $r2, 0
	li   $r3, 300
loop:	jal  bump
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
bump:	addi $r2, $r2, 5
	jr   $ra
	`)
	if m.ArchInt(2) != 1500 {
		t.Errorf("acc = %d", m.ArchInt(2))
	}
	// Loop + small callee fit in the queue: must still be bufferable
	// (paper §2.2.2).
	if m.Ctl.S.Promotions == 0 {
		t.Error("loop with small procedure call never promoted")
	}
}

func TestLoopWithLargeProcedureRevokes(t *testing.T) {
	// The callee is larger than a 32-entry queue, so buffering must fill
	// the queue and revoke, registering the loop in the NBLT.
	src := `
	li   $r2, 0
	li   $r3, 50
loop:	jal  big
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
big:
`
	for i := 0; i < 40; i++ {
		src += "\taddi $r2, $r2, 1\n"
	}
	src += "\tjr $ra\n"
	p := asm.MustAssemble(src)
	g := runInterp(t, p)
	cfg := DefaultConfig().WithIQSize(32)
	m := runPipe(t, cfg, p)
	checkArchEqual(t, "reuse-iq32", g, m)
	if m.ArchInt(2) != 2000 {
		t.Errorf("acc = %d", m.ArchInt(2))
	}
	if m.Ctl.S.RevokesFull == 0 {
		t.Error("queue-full revoke never happened")
	}
	if m.Ctl.S.Promotions != 0 {
		t.Error("oversized loop+callee promoted to reuse")
	}
}

func TestAlternatingBranchInLoop(t *testing.T) {
	// A data-dependent branch inside the loop flips every iteration, so
	// any buffered static prediction is soon wrong: reuse must exit
	// cleanly and results stay correct.
	m := differential(t, `
	li   $r2, 0
	li   $r4, 0        # parity
	li   $r3, 400
loop:	bne  $r4, $zero, odd
	addi $r2, $r2, 1
	j    next
odd:	addi $r2, $r2, 100
next:	xori $r4, $r4, 1
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`)
	if m.ArchInt(2) != 200*1+200*100 {
		t.Errorf("acc = %d", m.ArchInt(2))
	}
}

func TestShortTripLoopReentered(t *testing.T) {
	// A small loop entered many times with a trip count just above what a
	// 64-entry queue unrolls (~21 copies of the 3-instruction body): reuse
	// engages and exits on every re-entry.
	m := differential(t, `
	li   $r2, 0
	li   $r6, 100      # outer
outer:	li   $r3, 40       # short inner trip count
inner:	addi $r2, $r2, 1
	addi $r3, $r3, -1
	bne  $r3, $zero, inner
	addi $r6, $r6, -1
	bne  $r6, $zero, outer
	halt
	`)
	if m.ArchInt(2) != 4000 {
		t.Errorf("acc = %d", m.ArchInt(2))
	}
	if m.Ctl.S.ReuseExits == 0 {
		t.Error("reuse never exited across loop re-entries")
	}
}

func TestFPLoop(t *testing.T) {
	m := differential(t, `
	.data
v:	.space 8000
s:	.space 8
	.text
	la   $r5, v
	li   $r3, 1000
	li   $r4, 1
	cvt.d.w $f0, $zero
	cvt.d.w $f2, $r4        # 1.0
init:	s.d  $f2, 0($r5)
	add.d $f2, $f2, $f2     # not really, grows fast; keep small trip
	addi $r5, $r5, 8
	addi $r3, $r3, -1
	bgtz $r3, init
	halt
	`)
	_ = m
}

func TestFPReductionLoop(t *testing.T) {
	m := differential(t, `
	.data
v:	.space 4000
sum:	.space 8
	.text
	la   $r5, v
	li   $r3, 500
	li   $r4, 2
	cvt.d.w $f4, $r4         # 2.0
	cvt.d.w $f0, $zero       # acc
loop:	add.d $f0, $f0, $f4
	mul.d $f6, $f0, $f4
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	la   $r6, sum
	s.d  $f0, 0($r6)
	halt
	`)
	if got := m.Mem.ReadF64(m.Prog.Symbols["sum"]); got != 1000.0 {
		t.Errorf("sum = %v", got)
	}
	if m.Ctl.S.Promotions == 0 {
		t.Error("FP loop never promoted")
	}
}

func TestRecursionUnderReuse(t *testing.T) {
	differential(t, `
main:	li   $a0, 12
	jal  fib
	move $r9, $v0
	halt
fib:	slti $at, $a0, 2
	beq  $at, $zero, frec
	move $v0, $a0
	jr   $ra
frec:	addi $sp, $sp, -12
	sw   $ra, 0($sp)
	sw   $a0, 4($sp)
	addi $a0, $a0, -1
	jal  fib
	sw   $v0, 8($sp)
	lw   $a0, 4($sp)
	addi $a0, $a0, -2
	jal  fib
	lw   $r8, 8($sp)
	add  $v0, $v0, $r8
	lw   $ra, 0($sp)
	addi $sp, $sp, 12
	jr   $ra
	`)
}

func TestDivideAndMultiplyLatencies(t *testing.T) {
	m := differential(t, `
	li   $r2, 1000
	li   $r3, 7
	divq $r4, $r2, $r3
	rem  $r5, $r2, $r3
	mul  $r6, $r4, $r3
	add  $r7, $r6, $r5
	halt
	`)
	if m.ArchInt(7) != 1000 {
		t.Errorf("reassembled quotient*divisor+rem = %d", m.ArchInt(7))
	}
}

func TestIQSizeSweepCorrectness(t *testing.T) {
	src := `
	li   $r2, 0
	li   $r6, 30
outer:	li   $r3, 100
inner:	addi $r2, $r2, 7
	addi $r7, $r2, 1
	sub  $r8, $r7, $r2
	add  $r2, $r2, $r8
	addi $r3, $r3, -1
	bne  $r3, $zero, inner
	addi $r6, $r6, -1
	bne  $r6, $zero, outer
	halt
	`
	p := asm.MustAssemble(src)
	g := runInterp(t, p)
	for _, iq := range []int{32, 64, 128, 256} {
		m := runPipe(t, DefaultConfig().WithIQSize(iq), p)
		checkArchEqual(t, "iq", g, m)
		if m.ArchInt(2) != 30*100*8 {
			t.Errorf("iq=%d: acc = %d", iq, m.ArchInt(2))
		}
	}
}

func TestReusedInstancesCommit(t *testing.T) {
	m := differential(t, `
	li   $r3, 1000
l:	addi $r3, $r3, -1
	bne  $r3, $zero, l
	halt
	`)
	if m.C.ReusedCommitted == 0 {
		t.Fatal("no reused instances committed")
	}
	// The vast majority of this loop's dynamic instances should come from
	// the reuse path.
	if float64(m.C.ReusedCommitted) < 0.8*float64(m.C.Commits) {
		t.Errorf("reused committed = %d of %d", m.C.ReusedCommitted, m.C.Commits)
	}
}

func TestSingleIterationStrategy(t *testing.T) {
	p := asm.MustAssemble(`
	li   $r3, 1000
	li   $r2, 0
l:	add  $r2, $r2, $r3
	addi $r3, $r3, -1
	bne  $r3, $zero, l
	halt
	`)
	g := runInterp(t, p)
	cfg := DefaultConfig()
	cfg.Reuse.Strategy = 1 // core.StrategySingle
	m := runPipe(t, cfg, p)
	checkArchEqual(t, "single-strategy", g, m)
	if m.Ctl.S.Promotions == 0 {
		t.Fatal("single-iteration strategy never promoted")
	}
	// Single-iteration buffering must hold exactly one loop body.
	multi := runPipe(t, DefaultConfig(), p)
	if m.IQ.PartialUpdates == 0 || multi.IQ.PartialUpdates == 0 {
		t.Error("no partial updates recorded")
	}
	if m.Ctl.S.IterationsBuffered >= multi.Ctl.S.IterationsBuffered {
		t.Errorf("single strategy buffered %d iterations, multi %d",
			m.Ctl.S.IterationsBuffered, multi.Ctl.S.IterationsBuffered)
	}
}

func TestHaltDrainsPipeline(t *testing.T) {
	m := differential(t, `
	li $r2, 1
	li $r3, 2
	halt
	li $r2, 99
	halt
	`)
	if m.ArchInt(2) != 1 || m.ArchInt(3) != 2 {
		t.Errorf("r2=%d r3=%d", m.ArchInt(2), m.ArchInt(3))
	}
}

func TestWatchdogFires(t *testing.T) {
	p := asm.MustAssemble("spin:\tj spin\n\thalt")
	cfg := BaselineConfig()
	cfg.MaxCycles = 50_000
	m := New(cfg, p)
	if err := m.Run(); err == nil {
		t.Fatal("infinite loop did not error")
	}
}

// storeByteSrc mixes sub-word stores and loads of every width.
const storeByteSrc = `
	.data
buf:	.space 16
	.text
	la   $r5, buf
	li   $r2, -1
	sb   $r2, 0($r5)
	li   $r3, 300
	sw   $r3, 4($r5)
	lb   $r6, 0($r5)
	lbu  $r7, 0($r5)
	lw   $r8, 4($r5)
	halt
	`

func TestStoreByteAndLoadVariants(t *testing.T) {
	m := differential(t, storeByteSrc)
	if m.ArchInt(6) != -1 || m.ArchInt(7) != 255 || m.ArchInt(8) != 300 {
		t.Errorf("lb=%d lbu=%d lw=%d", m.ArchInt(6), m.ArchInt(7), m.ArchInt(8))
	}
}
