// Package rename implements MIPS-R10000-style register renaming: per-kind
// map tables from architectural to physical registers, free lists, the
// physical register files themselves, and per-register ready bits. Recovery
// uses ROB-walk rollback: every rename returns the previous mapping, which
// the pipeline stores in the ROB entry and replays in reverse on a squash.
package rename

import (
	"fmt"

	"reuseiq/internal/isa"
)

// RegFile bundles the rename state for both register kinds.
type RegFile struct {
	intVals  []int32
	fpVals   []float64
	intReady []bool
	fpReady  []bool
	intMap   [isa.NumIntRegs]int
	fpMap    [isa.NumFPRegs]int
	intFree  []int
	fpFree   []int

	// Activity counters for the power model.
	Renames  uint64 // map-table write operations
	MapReads uint64 // map-table read operations
	Reads    uint64 // physical register file reads
	Writes   uint64 // physical register file writes

	// scratch is reused by CheckInvariants, which runs every cycle under
	// the lockstep invariant checker and must not allocate.
	//reuse:transient scratch for CheckInvariants; never live across a cycle boundary
	scratch []bool
}

// New creates a rename unit with the given physical register counts. Each
// kind needs at least NumRegs+1 physical registers to make progress.
func New(intPhys, fpPhys int) (*RegFile, error) {
	if intPhys <= isa.NumIntRegs || fpPhys <= isa.NumFPRegs {
		return nil, fmt.Errorf("rename: need more physical than architectural registers (int %d, fp %d)", intPhys, fpPhys)
	}
	r := &RegFile{
		intVals:  make([]int32, intPhys),
		fpVals:   make([]float64, fpPhys),
		intReady: make([]bool, intPhys),
		fpReady:  make([]bool, fpPhys),
	}
	// Identity-map architectural registers onto the first physical
	// registers; they hold committed state and are ready.
	for i := 0; i < isa.NumIntRegs; i++ {
		r.intMap[i] = i
		r.intReady[i] = true
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		r.fpMap[i] = i
		r.fpReady[i] = true
	}
	for p := isa.NumIntRegs; p < intPhys; p++ {
		r.intFree = append(r.intFree, p)
	}
	for p := isa.NumFPRegs; p < fpPhys; p++ {
		r.fpFree = append(r.fpFree, p)
	}
	return r, nil
}

// MustNew is New that panics on error.
func MustNew(intPhys, fpPhys int) *RegFile {
	r, err := New(intPhys, fpPhys)
	if err != nil {
		panic(err)
	}
	return r
}

// Lookup returns the current physical register of architectural register reg.
func (r *RegFile) Lookup(reg isa.Reg) int {
	r.MapReads++
	if reg.Kind == isa.KindFP {
		return r.fpMap[reg.Num]
	}
	return r.intMap[reg.Num]
}

// FreeInt and FreeFP report free-list occupancy.
func (r *RegFile) FreeInt() int { return len(r.intFree) }
func (r *RegFile) FreeFP() int  { return len(r.fpFree) }

// CanRename reports whether a destination of the given kind can be renamed.
func (r *RegFile) CanRename(reg isa.Reg) bool {
	if reg.Kind == isa.KindFP {
		return len(r.fpFree) > 0
	}
	return len(r.intFree) > 0
}

// Rename allocates a new physical register for destination reg, updates the
// map table, and clears the new register's ready bit. It returns the new and
// previous physical registers. The caller must have checked CanRename.
//
//reuse:hotpath
func (r *RegFile) Rename(reg isa.Reg) (newPhys, oldPhys int) {
	r.Renames++
	if reg.Kind == isa.KindFP {
		newPhys = r.fpFree[len(r.fpFree)-1]
		r.fpFree = r.fpFree[:len(r.fpFree)-1]
		oldPhys = r.fpMap[reg.Num]
		r.fpMap[reg.Num] = newPhys
		r.fpReady[newPhys] = false
		return newPhys, oldPhys
	}
	if reg.IsZero() {
		panic("rename: $zero used as destination")
	}
	newPhys = r.intFree[len(r.intFree)-1]
	r.intFree = r.intFree[:len(r.intFree)-1]
	oldPhys = r.intMap[reg.Num]
	r.intMap[reg.Num] = newPhys
	r.intReady[newPhys] = false
	return newPhys, oldPhys
}

// Rollback undoes one Rename during squash recovery. Calls must occur in
// reverse rename order.
//
//reuse:hotpath
func (r *RegFile) Rollback(reg isa.Reg, newPhys, oldPhys int) {
	if reg.Kind == isa.KindFP {
		if r.fpMap[reg.Num] != newPhys {
			//reuse:allow-alloc invariant-violation panic path, never taken in a correct run
			panic(fmt.Sprintf("rename: out-of-order rollback of %v (map %d, new %d)", reg, r.fpMap[reg.Num], newPhys))
		}
		r.fpMap[reg.Num] = oldPhys
		r.fpFree = append(r.fpFree, newPhys)
		return
	}
	if r.intMap[reg.Num] != newPhys {
		//reuse:allow-alloc invariant-violation panic path, never taken in a correct run
		panic(fmt.Sprintf("rename: out-of-order rollback of %v (map %d, new %d)", reg, r.intMap[reg.Num], newPhys))
	}
	r.intMap[reg.Num] = oldPhys
	r.intFree = append(r.intFree, newPhys)
}

// Release frees the previous physical register when an instruction commits.
//
//reuse:hotpath
func (r *RegFile) Release(kind isa.RegKind, oldPhys int) {
	if kind == isa.KindFP {
		r.fpFree = append(r.fpFree, oldPhys)
		return
	}
	r.intFree = append(r.intFree, oldPhys)
}

// Ready reports whether physical register p of the given kind holds a value.
func (r *RegFile) Ready(kind isa.RegKind, p int) bool {
	if kind == isa.KindFP {
		return r.fpReady[p]
	}
	return r.intReady[p]
}

// ReadInt returns the value of integer physical register p.
func (r *RegFile) ReadInt(p int) int32 {
	r.Reads++
	return r.intVals[p]
}

// ReadFP returns the value of FP physical register p.
func (r *RegFile) ReadFP(p int) float64 {
	r.Reads++
	return r.fpVals[p]
}

// ChargeReads counts n register reads the pipeline accounted for without
// performing them (the operand reads of skipped load retries).
func (r *RegFile) ChargeReads(n uint64) { r.Reads += n }

// WriteInt writes integer physical register p and marks it ready.
func (r *RegFile) WriteInt(p int, v int32) {
	r.Writes++
	if p == 0 {
		return // the physical home of $zero is immutable
	}
	r.intVals[p] = v
	r.intReady[p] = true
}

// WriteFP writes FP physical register p and marks it ready.
func (r *RegFile) WriteFP(p int, v float64) {
	r.Writes++
	r.fpVals[p] = v
	r.fpReady[p] = true
}

// PeekInt returns the value of integer physical register p without charging
// a register-file read to the power model (verification use only).
func (r *RegFile) PeekInt(p int) int32 { return r.intVals[p] }

// PeekFP returns the value of FP physical register p without charging a
// read to the power model (verification use only).
func (r *RegFile) PeekFP(p int) float64 { return r.fpVals[p] }

// CheckInvariants verifies map-table/free-list consistency for both register
// kinds: a free list must not contain duplicates, and no physical register
// may be simultaneously mapped and free. (Physical registers held by
// in-flight ROB entries as previous mappings are legitimately in neither
// set.) It returns a descriptive error at the first violation.
func (r *RegFile) CheckInvariants() error {
	if n := max(len(r.intVals), len(r.fpVals)); len(r.scratch) < n {
		r.scratch = make([]bool, n)
	}
	check := func(kind string, mapped []int, free []int, phys int) error {
		seen := r.scratch[:phys]
		for i := range seen {
			seen[i] = false
		}
		for _, p := range free {
			if p < 0 || p >= phys {
				return fmt.Errorf("rename: %s free list holds out-of-range p%d", kind, p)
			}
			if seen[p] {
				return fmt.Errorf("rename: %s free list holds p%d twice", kind, p)
			}
			seen[p] = true
		}
		for a, p := range mapped {
			if p < 0 || p >= phys {
				return fmt.Errorf("rename: %s map of a%d holds out-of-range p%d", kind, a, p)
			}
			if seen[p] {
				return fmt.Errorf("rename: %s p%d is both mapped (a%d) and free", kind, p, a)
			}
		}
		return nil
	}
	if err := check("int", r.intMap[:], r.intFree, len(r.intVals)); err != nil {
		return err
	}
	return check("fp", r.fpMap[:], r.fpFree, len(r.fpVals))
}

// ArchInt returns the committed architectural value of integer register n
// (through the current map; call only when the pipeline is drained).
func (r *RegFile) ArchInt(n int) int32 { return r.intVals[r.intMap[n]] }

// ArchFP returns the committed architectural value of FP register n.
func (r *RegFile) ArchFP(n int) float64 { return r.fpVals[r.fpMap[n]] }

// SetArchInt initializes an architectural integer register before a run.
func (r *RegFile) SetArchInt(n int, v int32) { r.intVals[r.intMap[n]] = v }
