package isa

import "testing"

// TestLoadsReadOnlyIntegerBase pins the operand shape of every load: exactly
// one integer source, the base register rs. The issue stage charges each
// skipped retry of a parked load as one integer register read, so a load op
// that read rt or an FP base would make that charge wrong.
func TestLoadsReadOnlyIntegerBase(t *testing.T) {
	loads := 0
	for op := Op(0); int(op) < NumOps; op++ {
		info := op.Info()
		if info.Class != ClassLoad {
			continue
		}
		loads++
		if !info.ReadsRs || info.RsFP || info.ReadsRt {
			t.Errorf("%s: ReadsRs=%v RsFP=%v ReadsRt=%v, want a single integer base read",
				info.Name, info.ReadsRs, info.RsFP, info.ReadsRt)
		}
	}
	if loads == 0 {
		t.Fatal("no ClassLoad ops found")
	}
}
