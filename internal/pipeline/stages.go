package pipeline

import (
	"cmp"
	"fmt"
	"slices"

	"reuseiq/internal/core"
	"reuseiq/internal/fu"
	"reuseiq/internal/isa"
	"reuseiq/internal/lsq"
	"reuseiq/internal/rob"
)

// ---------------------------------------------------------------- commit --

//reuse:hotpath
func (m *Machine) commit() {
	for i := 0; i < m.Cfg.CommitWidth && !m.ROB.Empty(); i++ {
		h := m.ROB.Head()
		if !h.Done {
			return
		}
		if h.Halt {
			m.halted = true
			m.lastCommit = m.cycle
			if m.OnCommit != nil {
				if err := m.OnCommit(Commit{
					Cycle: m.cycle, Seq: h.Seq, PC: h.PC, Inst: h.Inst,
					Reused: h.Reused, Halted: true,
				}); err != nil {
					m.hookErr = err
				}
			}
			return
		}
		var c Commit
		if m.OnCommit != nil {
			c = Commit{
				Cycle: m.cycle, Seq: h.Seq, PC: h.PC, Inst: h.Inst,
				Reused: h.Reused, IsLoad: h.IsLoad, IsStore: h.IsStore,
				Taken: h.ActTaken, Target: h.ActTarget,
			}
			if h.HasDest {
				c.HasDest = true
				c.Dest = h.Dest
				if h.Dest.Kind == isa.KindFP {
					c.DestF = m.RF.PeekFP(h.NewPhys)
				} else {
					c.DestI = m.RF.PeekInt(h.NewPhys)
				}
			}
		}
		if h.IsStore {
			e := m.commitStore()
			c.StoreAddr, c.StoreI, c.StoreF = e.Addr, e.DataI, e.DataF
		}
		if h.IsLoad {
			e := m.LSQ.PopHead()
			c.LoadAddr = e.Addr
		}
		if h.HasDest {
			m.RF.Release(h.Dest.Kind, h.OldPhys)
		}
		cls := h.Inst.Op.Info().Class
		if cls == isa.ClassBranch {
			m.C.BranchesCommitted++
			if h.ActTaken {
				m.C.TakenCommitted++
			}
		}
		// Train the predictor with correct-path outcomes. Code Reuse
		// gates prediction lookups (paper §2.3) but commit-side updates
		// continue, keeping the tables warm for the loop exit.
		if h.Inst.Op.IsControl() {
			m.BP.Update(h.PC, h.Inst, h.ActTaken, h.ActTarget)
		}
		switch {
		case h.IsLoad:
			m.C.LoadsCommitted++
		case h.IsStore:
			m.C.StoresCommitted++
		}
		if h.Reused {
			m.C.ReusedCommitted++
		}
		if m.LogCommits {
			m.commitLog = append(m.commitLog, h.PC)
		}
		if m.Rec != nil {
			m.Rec.OnCommit(h.Seq, m.cycle)
		}
		if m.Tel != nil {
			if h.Seq < m.telSeq {
				m.Tel.InstCommit(h.Seq, h.PC)
			}
			if h.IssueCycle > 0 {
				m.Tel.CommitLatency(m.cycle - h.IssueCycle)
			}
		}
		if m.OnCommit != nil {
			if err := m.OnCommit(c); err != nil {
				m.hookErr = err
				return
			}
		}
		m.ROB.PopHead()
		m.C.Commits++
		m.lastCommit = m.cycle
	}
}

// commitStore writes the ROB head's store to architectural memory and the
// data cache, returning the drained LSQ entry (address and data) for the
// OnCommit record.
func (m *Machine) commitStore() lsq.Entry {
	slot := m.LSQ.HeadSlot()
	e := m.LSQ.PopHead()
	// Loads parked on the store search again; commit runs before issue,
	// so they are ordinary candidates in this cycle's select.
	m.IQ.Unpark(slot)
	if !e.IsStore || !e.AddrReady {
		panic("pipeline: committing store with unresolved LSQ head")
	}
	h := m.ROB.Head()
	switch h.Inst.Op {
	case isa.OpSW:
		m.Mem.WriteI32(e.Addr, e.DataI)
	case isa.OpSB:
		m.Mem.Write8(e.Addr, byte(e.DataI))
	case isa.OpSH:
		m.Mem.Write16(e.Addr, uint16(e.DataI))
	case isa.OpSD:
		m.Mem.WriteF64(e.Addr, e.DataF)
	}
	m.Hier.AccessData(e.Addr, true)
	m.C.StoreCommitAccesses++
	return e
}

// ------------------------------------------------------------- writeback --

//reuse:hotpath
func (m *Machine) writeback() {
	// Collect completions for this cycle in program order; older results
	// must write back (and possibly trigger recovery) before younger ones.
	done := m.done[:0]
	kept := m.execQ[:0]
	for _, e := range m.execQ {
		if e.done <= m.cycle {
			done = append(done, e)
		} else {
			kept = append(kept, e)
		}
	}
	m.execQ = kept
	m.done = done
	slices.SortFunc(done, func(a, b execEntry) int { return cmp.Compare(a.seq, b.seq) })

	// barrier guards against completions squashed by a recovery triggered
	// earlier in this same batch (their execQ entries were already drained
	// into done, so the recovery-time filter cannot catch them).
	barrier := ^uint64(0)
	for _, e := range done {
		if e.seq > barrier {
			continue
		}
		r := m.ROB.Get(e.robSlot)
		if r.Seq != e.seq {
			continue // squashed while in flight
		}
		if r.HasDest {
			if r.Dest.Kind == isa.KindFP {
				m.RF.WriteFP(r.NewPhys, e.valF)
			} else {
				m.RF.WriteInt(r.NewPhys, e.valI)
			}
			// Result-tag broadcast wakes up issue queue consumers. The
			// counters charge the CAM compare across all live entries the
			// hardware would perform; Wake only touches true dependents.
			m.C.WakeupBroadcasts++
			m.C.WakeupOccupancySum += uint64(m.IQ.Len())
			m.IQ.Wake(r.Dest.Kind, r.NewPhys)
		}
		r.Done = true
		if m.Rec != nil {
			m.Rec.OnComplete(r.Seq, m.cycle)
		}
		if r.Seq < m.telSeq {
			//reuse:allow-unguarded telSeq is nonzero only after AttachTelemetry caches Tel's cap
			m.Tel.InstComplete(r.Seq, r.PC)
		}
		if r.Inst.Op.IsControl() {
			r.Mispred = r.ActTarget != predictedNextPC(r)
			if r.Mispred {
				m.recover(r)
				barrier = r.Seq
			}
		}
	}
}

// predictedNextPC returns the next PC the front end followed after this
// control instruction.
func predictedNextPC(e *rob.Entry) uint32 {
	if e.PredTaken {
		return e.PredTarget
	}
	return e.PC + 4
}

// recover squashes everything younger than the mispredicted control
// instruction e, rolls back the rename map, redirects fetch, and informs the
// reuse controller (revoking a buffering or exiting Code Reuse).
func (m *Machine) recover(e *rob.Entry) {
	m.C.Mispredicts++
	if m.Tel != nil {
		m.Tel.Mispredict(e.PC, e.ActTarget, e.Seq)
	}
	m.tracef("cycle %d: mispredict seq=%d pc=0x%x -> 0x%x (state %v)",
		m.cycle, e.Seq, e.PC, e.ActTarget, m.Ctl.State())

	// Order matters: the controller must clean up classification bits
	// (removing dead buffered entries) before the seq-based squash.
	m.Ctl.OnRecovery()

	removed := m.ROB.SquashAfter(e.Seq)
	for i := range removed {
		en := &removed[i]
		if en.HasDest {
			m.RF.Rollback(en.Dest, en.NewPhys, en.OldPhys)
		}
		if m.Rec != nil {
			m.Rec.OnSquash(en.Seq)
		}
	}
	m.IQ.SquashAfter(e.Seq)
	m.LSQ.SquashAfter(e.Seq)
	kept := m.execQ[:0]
	for _, x := range m.execQ {
		if x.seq <= e.Seq {
			kept = append(kept, x)
		}
	}
	m.execQ = kept
	m.fetchQ = m.fetchQ[:0]
	m.decodeLat = m.decodeLat[:0]
	m.fetchPC = e.ActTarget
	m.fetchStallUntil = m.cycle + uint64(m.Cfg.MispredictPenalty)
	m.fetchHalted = false
	if m.LC != nil {
		m.LC.OnRedirect()
	}
}

// ----------------------------------------------------------------- issue --

// attempt is the outcome of one select attempt on a candidate.
type attempt uint8

const (
	attemptFailed attempt = iota // not issued; the entry stays in select
	attemptIssued
	attemptParked // a load blocked by an older store, parked on it
)

//reuse:hotpath
func (m *Machine) issue() {
	// The modeled select logic examines every live entry each cycle; the
	// software walks only the queue's ready-candidate index.
	m.C.IssueCycleScans += uint64(m.IQ.Len())
	m.IQ.SelectScans += uint64(m.IQ.Len())

	m.resolveStoreAddresses()

	// Select ready entries oldest first, walking the queue's age-ordered
	// index in place. Issuing or parking the entry at i removes it from
	// the index; a store issuing at i unparks its waiting loads, which are
	// younger and so land after i, to be examined in this same walk at
	// their age position, as they were before they were parked.
	//
	// A parked load skips the retries the modeled hardware still makes:
	// each would read the load's base register and search the LSQ again,
	// with the same MustWait outcome. A retry happens when the walk
	// reaches the load's age position with issue width left and a memory
	// port free. Both only run out as the walk proceeds, so the retried
	// loads are the parked ones older than the candidate whose issue used
	// up the width or the last port (stop), and they are charged in one
	// count. Loads parked during this walk already counted their search.
	stop := ^uint64(0)
	if !m.FUs.KindAvailable(fu.MemPort, m.cycle) {
		stop = 0
	}
	issued, parked := 0, 0
	for i := 0; issued < m.Cfg.IssueWidth; {
		ord := m.IQ.ReadyBySeq()
		if i == len(ord) {
			break
		}
		c := ord[i]
		switch m.tryIssueEntry(int(c.Slot)) {
		case attemptIssued:
			issued++
			if issued == m.Cfg.IssueWidth || (stop == ^uint64(0) && !m.FUs.KindAvailable(fu.MemPort, m.cycle)) {
				stop = min(stop, c.Seq)
			}
		case attemptParked:
			parked++
		default:
			i++
		}
	}
	if n := uint64(m.IQ.ParkedBefore(stop) - parked); n > 0 {
		// Every load reads exactly one integer register, its base.
		m.LSQ.ChargeSearches(n)
		m.RF.ChargeReads(n)
	}
}

// CheckParked verifies, without charging any modeled activity, that every
// parked load is still blocked by the store it is parked on: the key slot
// holds a live store older than the load that would make it wait. A store
// that changed without waking its loads fails it.
func (m *Machine) CheckParked() error {
	for _, r := range m.IQ.Parked() {
		e := m.IQ.Entry(int(r.Slot))
		if e.Inst.Op.Info().Class != isa.ClassLoad {
			return fmt.Errorf("parked seq %d is not a load: %s", e.Seq, e.Inst.Disasm(e.PC))
		}
		key := m.IQ.ParkKey(int(r.Slot))
		if !m.LSQ.Live(key) {
			return fmt.Errorf("parked load seq %d waits on LSQ slot %d, which holds no entry", e.Seq, key)
		}
		st := m.LSQ.Get(key)
		if !st.IsStore || st.Seq >= e.Seq {
			return fmt.Errorf("parked load seq %d waits on LSQ slot %d holding seq %d (store %v), not an older store",
				e.Seq, key, st.Seq, st.IsStore)
		}
		addr := uint32(m.RF.PeekInt(e.SrcPhys[0]) + e.Inst.Imm) // base register rs + offset
		if !m.LSQ.Blocks(key, addr, memSize(e.Inst.Op)) {
			return fmt.Errorf("parked load seq %d (addr 0x%x) is no longer blocked by store seq %d in LSQ slot %d",
				e.Seq, addr, st.Seq, key)
		}
	}
	return nil
}

// resolveStoreAddresses performs store address generation separately from
// store data capture (as the R10000 and SimpleScalar do): a store whose base
// register is ready publishes its address to the LSQ even while its data
// operand is still being computed. Without this split, the conservative
// "loads wait for older store addresses" rule would serialize every load
// behind dependent stores and destroy memory-level parallelism.
//
//reuse:hotpath
func (m *Machine) resolveStoreAddresses() {
	resolved := 0
	//reuse:allow-alloc non-escaping closure: ForEachPendingStore calls f inline and never retains it
	m.IQ.ForEachPendingStore(func(slot int) bool {
		if resolved >= m.Cfg.IssueWidth {
			return false
		}
		e := m.IQ.Entry(slot)
		le := m.LSQ.Get(e.LSQSlot)
		if le.AddrReady || le.Seq != e.Seq {
			m.IQ.StoreResolved(slot)
			return true
		}
		// The base register is the first source (rs).
		if !e.SrcReady[0] {
			return true
		}
		base := m.RF.ReadInt(e.SrcPhys[0])
		le.Addr = uint32(base + e.Inst.Imm)
		le.AddrReady = true
		m.IQ.StoreResolved(slot)
		m.IQ.Unpark(e.LSQSlot)
		resolved++
		return true
	})
}

// tryIssueEntry attempts to issue the queue entry in slot. Issued
// conventional entries are removed; classified entries stay with their
// issue state bit set. A load whose search must wait for an older store is
// parked on that store.
func (m *Machine) tryIssueEntry(slot int) attempt {
	// Slots are stable, so the entry can be read in place (a value copy
	// would be forced onto the heap by the debug path taking its address).
	// MarkIssued frees a conventional entry's slot, so everything needed
	// after it is read into locals first.
	e := m.IQ.Entry(slot)
	op := e.Inst.Op
	cls := op.Info().Class

	// Loads: conservative disambiguation before consuming a port.
	if cls == isa.ClassLoad && !m.LSQ.OlderStoreAddrsKnown(e.Seq) {
		return attemptFailed
	}

	if !m.FUs.Available(op, m.cycle) {
		return attemptFailed
	}

	// Read operands from the physical register file.
	ops := isa.Operands{PC: e.PC}
	info := op.Info()
	srcIdx := 0
	if info.ReadsRs {
		if info.RsFP {
			ops.FA = m.RF.ReadFP(e.SrcPhys[srcIdx])
		} else {
			ops.A = m.RF.ReadInt(e.SrcPhys[srcIdx])
		}
		srcIdx++
	}
	if info.ReadsRt {
		if info.RtFP {
			ops.FB = m.RF.ReadFP(e.SrcPhys[srcIdx])
		} else {
			ops.B = m.RF.ReadInt(e.SrcPhys[srcIdx])
		}
	}
	r := isa.Eval(e.Inst, ops)

	var lat int
	var valI int32
	var valF float64
	switch cls {
	case isa.ClassLoad:
		res, st := m.LSQ.SearchForLoad(e.LSQSlot, r.Addr, memSize(op))
		if res == lsq.MustWait {
			m.IQ.Park(slot, st)
			return attemptParked
		}
		if _, ok := m.FUs.TryIssue(op, m.cycle); !ok {
			return attemptFailed
		}
		le := m.LSQ.Get(e.LSQSlot)
		le.AddrReady = true
		le.Addr = r.Addr
		le.Done = true
		if res == lsq.Forwarded {
			lat = 2 // address generation + bypass
			se := m.LSQ.Get(st)
			valI, valF = applyLoadSemantics(op, se.DataI, se.DataF)
		} else {
			lat = 1 + m.Hier.AccessData(r.Addr, false)
			valI, valF = m.loadFromMemory(op, r.Addr)
		}
	case isa.ClassStore:
		if _, ok := m.FUs.TryIssue(op, m.cycle); !ok {
			return attemptFailed
		}
		le := m.LSQ.Get(e.LSQSlot)
		le.AddrReady = true
		le.Addr = r.Addr
		le.DataReady = true
		le.DataI = r.StoreI
		le.DataF = r.StoreF
		le.Done = true
		m.IQ.Unpark(e.LSQSlot)
		lat = 1
	default:
		l, ok := m.FUs.TryIssue(op, m.cycle)
		if !ok {
			return attemptFailed
		}
		lat = l
		valI, valF = r.I, r.F
	}
	// Fault injection: inflate the result latency, modeling a slow unit.
	if j := m.Chaos.Jitter(); j > 0 {
		lat += j
		if m.Tel != nil {
			m.Tel.ChaosJitter(j, e.Seq)
		}
	}

	// Record control resolution in the ROB for the writeback check.
	re := m.ROB.Get(e.ROBSlot)
	re.IssueCycle = m.cycle
	if op.IsControl() {
		re.ActTaken = r.Taken
		if r.Taken {
			re.ActTarget = r.Target
		} else {
			re.ActTarget = e.PC + 4
		}
	}

	if m.DebugIssue != nil {
		m.DebugIssue(e.Seq, e.PC, fmtIssue(e, ops, valI))
	}
	if m.Rec != nil {
		m.Rec.OnIssue(e.Seq, m.cycle)
	}
	if e.Seq < m.telSeq {
		//reuse:allow-unguarded telSeq is nonzero only after AttachTelemetry caches Tel's cap
		m.Tel.InstIssue(e.Seq, e.PC)
	}
	robSlot, seq := e.ROBSlot, e.Seq
	m.IQ.MarkIssued(slot)
	m.execQ = append(m.execQ, execEntry{
		robSlot: robSlot, seq: seq, done: m.cycle + uint64(lat),
		valI: valI, valF: valF,
	})
	return attemptIssued
}

func memSize(op isa.Op) uint8 {
	switch op {
	case isa.OpLB, isa.OpLBU, isa.OpSB:
		return 1
	case isa.OpLH, isa.OpLHU, isa.OpSH:
		return 2
	case isa.OpLD, isa.OpSD:
		return 8
	}
	return 4
}

// applyLoadSemantics narrows a forwarded store value the way the load would
// read it from memory (sign or zero extension for sub-word loads).
func applyLoadSemantics(op isa.Op, dI int32, dF float64) (int32, float64) {
	switch op {
	case isa.OpLB:
		return int32(int8(dI)), 0
	case isa.OpLBU:
		return int32(uint8(dI)), 0
	case isa.OpLH:
		return int32(int16(dI)), 0
	case isa.OpLHU:
		return int32(uint16(dI)), 0
	case isa.OpLD:
		return 0, dF
	}
	return dI, 0
}

func (m *Machine) loadFromMemory(op isa.Op, addr uint32) (int32, float64) {
	switch op {
	case isa.OpLW:
		return m.Mem.ReadI32(addr), 0
	case isa.OpLB:
		return int32(int8(m.Mem.Read8(addr))), 0
	case isa.OpLBU:
		return int32(m.Mem.Read8(addr)), 0
	case isa.OpLH:
		return int32(int16(m.Mem.Read16(addr))), 0
	case isa.OpLHU:
		return int32(m.Mem.Read16(addr)), 0
	case isa.OpLD:
		return 0, m.Mem.ReadF64(addr)
	}
	//reuse:allow-alloc not-a-load panic: unreachable for programs the decoder accepts
	panic("pipeline: not a load: " + op.String())
}

//reuse:allow-alloc debug issue formatter; called only under the DebugIssue nil guard
func fmtIssue(e *core.Entry, ops isa.Operands, valI int32) string {
	return fmt.Sprintf("issue seq=%d pc=0x%x %-24s A=%d B=%d src=%v val=%d",
		e.Seq, e.PC, e.Inst.Disasm(e.PC), ops.A, ops.B, e.SrcPhys[:e.NumSrc], valI)
}
