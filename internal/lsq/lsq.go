// Package lsq implements the load/store queue: memory operations are
// allocated in program order at dispatch, compute their addresses at
// execute, and stores update memory only at commit, so wrong-path execution
// can never corrupt architectural memory state. Loads forward from older
// resolved stores and wait conservatively while any older store address is
// unknown.
//
// Both load-side checks cost work proportional to what they decide, not to
// queue occupancy. The older-store-address check keeps a cursor: the number
// of entries from the head known to hold no unresolved store. An entry's
// AddrReady only ever goes false to true while it is in the queue, so the
// prefix stays clean until the head pops (the cursor shrinks with it) or a
// squash truncates the queue (the cursor is clamped); a query only extends
// it, which makes the check amortised O(1). The forwarding search starts at
// the load's own slot and walks back over older entries only. Ring indices
// wrap by compare instead of a per-step modulo, so any capacity works.
//
// The search names the store that decided it. A load told to wait can only
// get a different answer once that store changes — its address resolves,
// its data becomes ready, or it leaves the queue at commit — so the issue
// stage parks the load on that slot instead of retrying it every cycle, and
// charges the skipped retries through ChargeSearches so Searches still
// counts every search the modeled hardware performs.
package lsq

// Entry is one in-flight memory operation.
type Entry struct {
	Seq     uint64
	IsStore bool
	IsFP    bool  // double-width FP access
	Size    uint8 // access size in bytes (1, 4, or 8)

	AddrReady bool
	Addr      uint32

	// Store data, captured at execute.
	DataReady bool
	//reuse:nodigest architectural value; the digest hashes microarchitectural structure, values are extrapolated
	DataI int32
	//reuse:nodigest architectural value; the digest hashes microarchitectural structure, values are extrapolated
	DataF float64

	Done bool // executed (loads: value obtained; stores: addr+data ready)
}

// LSQ is the load/store queue.
type LSQ struct {
	ring  []Entry
	head  int
	count int

	// clean counts the entries from head known to hold no unresolved store
	// address (0 <= clean <= count). OlderStoreAddrsKnown extends it lazily.
	//reuse:transient derived cache, rebuilt by ImportState
	clean int

	Allocs         uint64
	Searches       uint64 // associative searches by loads
	Forwards       uint64 // store-to-load forwards
	ConflictStalls uint64 // load issue attempts blocked by unknown store addresses
}

// New creates a queue with the given capacity.
func New(size int) *LSQ {
	return &LSQ{ring: make([]Entry, size)}
}

// Size and Len report capacity and occupancy.
func (q *LSQ) Size() int { return len(q.ring) }
func (q *LSQ) Len() int  { return q.count }

// Full reports whether an allocation would fail.
func (q *LSQ) Full() bool { return q.count == len(q.ring) }

// Alloc appends a memory operation, returning its stable slot.
//
//reuse:hotpath
func (q *LSQ) Alloc(e Entry) (int, bool) {
	if q.Full() {
		return 0, false
	}
	slot := q.wrap(q.head + q.count)
	q.ring[slot] = e
	q.count++
	q.Allocs++
	return slot, true
}

// Get returns the entry in slot.
func (q *LSQ) Get(slot int) *Entry { return &q.ring[slot] }

// HeadSlot returns the slot of the oldest entry (meaningful when Len > 0).
func (q *LSQ) HeadSlot() int { return q.head }

// Head returns the oldest entry, or nil.
func (q *LSQ) Head() *Entry {
	if q.count == 0 {
		return nil
	}
	return &q.ring[q.head]
}

// PopHead removes the oldest entry (when its instruction commits).
//
//reuse:hotpath
func (q *LSQ) PopHead() Entry {
	if q.count == 0 {
		panic("lsq: pop of empty queue")
	}
	e := q.ring[q.head]
	q.head = q.wrap(q.head + 1)
	q.count--
	if q.clean > 0 {
		q.clean--
	}
	return e
}

// SquashAfter drops all entries with Seq > seq.
//
//reuse:hotpath
func (q *LSQ) SquashAfter(seq uint64) {
	for q.count > 0 && q.ring[q.wrap(q.head+q.count-1)].Seq > seq {
		q.count--
	}
	q.clean = min(q.clean, q.count)
}

// wrap folds a ring index in [0, 2*len(ring)) back into range.
func (q *LSQ) wrap(i int) int {
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	return i
}

// OlderStoreAddrsKnown reports whether every store older than seq has a
// resolved address. Loads issue only when this holds (conservative
// disambiguation). Entries sit in seq order, so the answer is decided by
// the oldest unresolved store alone; the clean-prefix cursor finds it.
//
//reuse:hotpath
func (q *LSQ) OlderStoreAddrsKnown(seq uint64) bool {
	i := q.wrap(q.head + q.clean)
	for q.clean < q.count {
		e := &q.ring[i]
		if e.IsStore && !e.AddrReady {
			if e.Seq >= seq {
				return true
			}
			q.ConflictStalls++
			return false
		}
		q.clean++
		if i++; i == len(q.ring) {
			i = 0
		}
	}
	return true
}

// ForwardResult describes the outcome of a load's associative search.
type ForwardResult int

const (
	// FromMemory: no older store overlaps; read the data cache.
	FromMemory ForwardResult = iota
	// Forwarded: the youngest older matching store supplies the data.
	Forwarded
	// MustWait: an older store overlaps with mismatched size/alignment
	// (or unresolved address); the load must retry later.
	MustWait
)

// SearchForLoad performs the associative search of the load in slot against
// the stores older than it. It returns the outcome and the slot of the store
// that decided it: on Forwarded the store whose data the load takes (read it
// with Get), on MustWait the store the load waits for, and -1 on FromMemory.
//
//reuse:hotpath
func (q *LSQ) SearchForLoad(slot int, addr uint32, size uint8) (ForwardResult, int) {
	q.Searches++
	// Scan from the youngest older entry back to the head; the first
	// overlap decides.
	older := slot - q.head
	if older < 0 {
		older += len(q.ring)
	}
	for i := slot; older > 0; older-- {
		if i == 0 {
			i = len(q.ring)
		}
		i--
		e := &q.ring[i]
		if !e.IsStore {
			continue
		}
		if !e.AddrReady {
			return MustWait, i
		}
		if !overlaps(e.Addr, uint32(e.Size), addr, uint32(size)) {
			continue
		}
		if e.Addr == addr && e.Size == size && e.DataReady {
			q.Forwards++
			return Forwarded, i
		}
		return MustWait, i
	}
	return FromMemory, -1
}

// Blocks reports, without counting a search, whether the store in slot
// makes a load of size bytes at addr wait: its address is unknown, or it
// overlaps the load and cannot forward to it. For invariant checkers.
func (q *LSQ) Blocks(slot int, addr uint32, size uint8) bool {
	e := &q.ring[slot]
	if !e.AddrReady {
		return true
	}
	return overlaps(e.Addr, uint32(e.Size), addr, uint32(size)) &&
		!(e.Addr == addr && e.Size == size && e.DataReady)
}

// Live reports whether slot holds an entry currently in the queue.
func (q *LSQ) Live(slot int) bool {
	off := slot - q.head
	if off < 0 {
		off += len(q.ring)
	}
	return slot >= 0 && slot < len(q.ring) && off < q.count
}

// ChargeSearches counts n load searches the issue stage skipped because
// their outcome was known: each was a retry of a load parked on a store that
// has not changed, which the modeled hardware would still have performed.
func (q *LSQ) ChargeSearches(n uint64) { q.Searches += n }

func overlaps(a1, s1, a2, s2 uint32) bool {
	return a1 < a2+s2 && a2 < a1+s1
}

// Walk calls f over all entries in program order.
func (q *LSQ) Walk(f func(slot int, e *Entry)) {
	slot := q.head
	for i := 0; i < q.count; i++ {
		f(slot, &q.ring[slot])
		if slot++; slot == len(q.ring) {
			slot = 0
		}
	}
}
