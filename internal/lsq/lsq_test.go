package lsq

import (
	"math/rand"
	"testing"
)

func store(seq uint64, addr uint32, size uint8, data int32, resolved bool) Entry {
	return Entry{Seq: seq, IsStore: true, Size: size, Addr: addr,
		AddrReady: resolved, DataReady: resolved, DataI: data}
}

func load(seq uint64, size uint8) Entry {
	return Entry{Seq: seq, Size: size}
}

func TestAllocPopOrder(t *testing.T) {
	q := New(4)
	q.Alloc(load(1, 4))
	q.Alloc(store(2, 0x100, 4, 7, true))
	if q.Len() != 2 || q.Full() {
		t.Fatalf("len=%d", q.Len())
	}
	if q.PopHead().Seq != 1 || q.PopHead().Seq != 2 {
		t.Fatal("pop order wrong")
	}
}

func TestOlderStoreAddrsKnown(t *testing.T) {
	q := New(8)
	q.Alloc(store(1, 0x100, 4, 7, true))
	q.Alloc(store(2, 0, 4, 0, false)) // unresolved
	q.Alloc(load(3, 4))
	if q.OlderStoreAddrsKnown(3) {
		t.Fatal("unresolved older store not detected")
	}
	q.Get(1).AddrReady = true
	if !q.OlderStoreAddrsKnown(3) {
		t.Fatal("resolved stores still block")
	}
	// A younger store must not block an older load.
	q.Alloc(store(5, 0, 4, 0, false))
	if !q.OlderStoreAddrsKnown(3) {
		t.Fatal("younger store blocked older load")
	}
}

// searchData runs SearchForLoad and reads a forwarded value from the store
// it names.
func searchData(q *LSQ, slot int, addr uint32, size uint8) (ForwardResult, int32, float64) {
	res, st := q.SearchForLoad(slot, addr, size)
	if res != Forwarded {
		return res, 0, 0
	}
	e := q.Get(st)
	return res, e.DataI, e.DataF
}

func TestSearchNamesDecidingStore(t *testing.T) {
	q := New(8)
	q.Alloc(store(1, 0x100, 4, 1, true))
	byteStore, _ := q.Alloc(store(2, 0x104, 1, 2, true))
	q.Alloc(store(3, 0x200, 4, 3, true))
	ls, _ := q.Alloc(load(4, 4))
	if res, st := q.SearchForLoad(ls, 0x100, 4); res != Forwarded || st != 0 {
		t.Errorf("exact match: (%v, %d), want (Forwarded, 0)", res, st)
	}
	if res, st := q.SearchForLoad(ls, 0x104, 4); res != MustWait || st != byteStore {
		t.Errorf("size mismatch: (%v, %d), want (MustWait, %d)", res, st, byteStore)
	}
	if !q.Blocks(byteStore, 0x104, 4) || q.Blocks(byteStore, 0x104, 1) || q.Blocks(0, 0x100, 4) {
		t.Error("Blocks disagrees with the search")
	}
	if res, st := q.SearchForLoad(ls, 0x300, 4); res != FromMemory || st != -1 {
		t.Errorf("no overlap: (%v, %d), want (FromMemory, -1)", res, st)
	}
	if q.Searches != 3 || q.Forwards != 1 {
		t.Errorf("searches %d forwards %d, want 3 and 1 (Blocks must not count)", q.Searches, q.Forwards)
	}
	q.PopHead()
	if q.Live(0) || !q.Live(byteStore) || !q.Live(ls) || q.Live(ls+1) {
		t.Error("Live does not match the occupied ring range")
	}
}

func TestForwardExactMatch(t *testing.T) {
	q := New(8)
	q.Alloc(store(1, 0x100, 4, 42, true))
	ls, _ := q.Alloc(load(2, 4))
	res, dI, _ := searchData(q, ls, 0x100, 4)
	if res != Forwarded || dI != 42 {
		t.Fatalf("res=%v dI=%d", res, dI)
	}
	if q.Forwards != 1 {
		t.Errorf("forwards = %d", q.Forwards)
	}
}

func TestForwardYoungestOlderWins(t *testing.T) {
	q := New(8)
	q.Alloc(store(1, 0x100, 4, 1, true))
	q.Alloc(store(2, 0x100, 4, 2, true))
	ls, _ := q.Alloc(load(3, 4))
	res, dI, _ := searchData(q, ls, 0x100, 4)
	if res != Forwarded || dI != 2 {
		t.Fatalf("got %v %d, want the younger store's value 2", res, dI)
	}
}

func TestForwardIgnoresYoungerStores(t *testing.T) {
	q := New(8)
	ls, _ := q.Alloc(load(1, 4))
	q.Alloc(store(2, 0x100, 4, 9, true))
	res, _, _ := searchData(q, ls, 0x100, 4)
	if res != FromMemory {
		t.Fatalf("res = %v, want FromMemory", res)
	}
}

func TestForwardNoOverlapGoesToMemory(t *testing.T) {
	q := New(8)
	q.Alloc(store(1, 0x100, 4, 9, true))
	ls, _ := q.Alloc(load(2, 4))
	res, _, _ := searchData(q, ls, 0x104, 4)
	if res != FromMemory {
		t.Fatalf("res = %v", res)
	}
}

func TestPartialOverlapMustWait(t *testing.T) {
	q := New(8)
	q.Alloc(store(1, 0x100, 1, 0xff, true)) // byte store
	ls, _ := q.Alloc(load(2, 4))
	res, _, _ := searchData(q, ls, 0x100, 4) // word load overlapping the byte
	if res != MustWait {
		t.Fatalf("res = %v, want MustWait on size mismatch", res)
	}
	// Byte load at a different offset within the same word: no overlap.
	res, _, _ = searchData(q, ls, 0x101, 1)
	if res != FromMemory {
		t.Fatalf("res = %v, want FromMemory for disjoint byte", res)
	}
}

func TestUnresolvedOlderStoreMustWait(t *testing.T) {
	q := New(8)
	q.Alloc(store(1, 0, 4, 0, false))
	ls, _ := q.Alloc(load(2, 4))
	res, _, _ := searchData(q, ls, 0x100, 4)
	if res != MustWait {
		t.Fatalf("res = %v", res)
	}
}

func TestFPForwarding(t *testing.T) {
	q := New(8)
	s := Entry{Seq: 1, IsStore: true, IsFP: true, Size: 8, Addr: 0x200,
		AddrReady: true, DataReady: true, DataF: 2.5}
	q.Alloc(s)
	ls, _ := q.Alloc(Entry{Seq: 2, Size: 8, IsFP: true})
	res, _, dF := searchData(q, ls, 0x200, 8)
	if res != Forwarded || dF != 2.5 {
		t.Fatalf("res=%v dF=%v", res, dF)
	}
}

func TestSquashAfter(t *testing.T) {
	q := New(8)
	for i := 1; i <= 5; i++ {
		q.Alloc(load(uint64(i), 4))
	}
	q.SquashAfter(2)
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	q.Walk(func(slot int, e *Entry) {
		if e.Seq > 2 {
			t.Errorf("seq %d survived", e.Seq)
		}
	})
}

func TestRingWraparound(t *testing.T) {
	q := New(3)
	q.Alloc(load(1, 4))
	q.Alloc(load(2, 4))
	q.PopHead()
	q.Alloc(load(3, 4))
	q.Alloc(load(4, 4)) // wraps into slot 0
	if q.Len() != 3 || !q.Full() {
		t.Fatalf("len=%d", q.Len())
	}
	if q.Head().Seq != 2 {
		t.Errorf("head seq = %d", q.Head().Seq)
	}
}

func TestOverlapHelper(t *testing.T) {
	cases := []struct {
		a1, s1, a2, s2 uint32
		want           bool
	}{
		{0x100, 4, 0x100, 4, true},
		{0x100, 4, 0x104, 4, false},
		{0x100, 4, 0x103, 1, true},
		{0x100, 1, 0x100, 4, true},
		{0x100, 8, 0x104, 4, true},
		{0x104, 4, 0x100, 8, true},
		{0x100, 1, 0x101, 1, false},
	}
	for _, c := range cases {
		if got := overlaps(c.a1, c.s1, c.a2, c.s2); got != c.want {
			t.Errorf("overlaps(0x%x,%d, 0x%x,%d) = %v", c.a1, c.s1, c.a2, c.s2, got)
		}
	}
}

// refLSQ is the original linear-scan queue, kept as the differential
// reference for the cursor-based disambiguation check and the older-only
// forwarding search: every decision and every counter must agree.
type refLSQ struct {
	ring                               []Entry
	head, count                        int
	searches, forwards, conflictStalls uint64
}

func (r *refLSQ) alloc(e Entry) (int, bool) {
	if r.count == len(r.ring) {
		return 0, false
	}
	slot := (r.head + r.count) % len(r.ring)
	r.ring[slot] = e
	r.count++
	return slot, true
}

func (r *refLSQ) popHead() Entry {
	e := r.ring[r.head]
	r.head = (r.head + 1) % len(r.ring)
	r.count--
	return e
}

func (r *refLSQ) squashAfter(seq uint64) {
	for r.count > 0 {
		tail := (r.head + r.count - 1) % len(r.ring)
		if r.ring[tail].Seq <= seq {
			return
		}
		r.count--
	}
}

func (r *refLSQ) olderStoreAddrsKnown(seq uint64) bool {
	for i := 0; i < r.count; i++ {
		e := &r.ring[(r.head+i)%len(r.ring)]
		if e.Seq >= seq {
			break
		}
		if e.IsStore && !e.AddrReady {
			r.conflictStalls++
			return false
		}
	}
	return true
}

// searchForLoad returns the outcome, the deciding store's slot (-1 when
// none) and, on Forwarded, its data.
func (r *refLSQ) searchForLoad(seq uint64, addr uint32, size uint8) (ForwardResult, int, int32, float64) {
	r.searches++
	for i := r.count - 1; i >= 0; i-- {
		slot := (r.head + i) % len(r.ring)
		e := &r.ring[slot]
		if e.Seq >= seq || !e.IsStore {
			continue
		}
		if !e.AddrReady {
			return MustWait, slot, 0, 0
		}
		if !overlaps(e.Addr, uint32(e.Size), addr, uint32(size)) {
			continue
		}
		if e.Addr == addr && e.Size == size && e.DataReady {
			r.forwards++
			return Forwarded, slot, e.DataI, e.DataF
		}
		return MustWait, slot, 0, 0
	}
	return FromMemory, -1, 0, 0
}

// TestDifferentialAgainstLinearScan drives the queue and the linear-scan
// reference with identical seeded operation streams — allocation, address
// resolution, commit, squash, and snapshot round trips including restores
// of older images — over ring sizes that are not powers of two, and
// requires identical answers and counters after every operation.
func TestDifferentialAgainstLinearScan(t *testing.T) {
	sizes := []uint8{1, 4, 8}
	addrs := []uint32{0x100, 0x101, 0x104, 0x108}
	for _, capacity := range []int{1, 2, 3, 5, 7, 8, 12, 16} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			q := New(capacity)
			ref := &refLSQ{ring: make([]Entry, capacity)}
			var nextSeq uint64
			var saved State
			var savedRef *refLSQ
			haveSaved := false
			for step := 0; step < 3000; step++ {
				op := rng.Intn(10)
				switch {
				case op < 3: // dispatch a memory operation
					nextSeq++
					e := Entry{Seq: nextSeq, IsStore: rng.Intn(2) == 0, Size: sizes[rng.Intn(len(sizes))]}
					if e.IsStore && rng.Intn(3) == 0 {
						e.AddrReady, e.Addr = true, addrs[rng.Intn(len(addrs))]
						e.DataReady, e.DataI = true, rng.Int31()
					}
					s1, ok1 := q.Alloc(e)
					s2, ok2 := ref.alloc(e)
					if s1 != s2 || ok1 != ok2 {
						t.Fatalf("cap %d seed %d step %d: alloc (%d,%v) vs ref (%d,%v)", capacity, seed, step, s1, ok1, s2, ok2)
					}
				case op < 5: // resolve an address (false -> true only)
					if q.Len() == 0 {
						continue
					}
					slot := (q.head + rng.Intn(q.Len())) % capacity
					if q.ring[slot].AddrReady {
						continue
					}
					a, d, dataReady := addrs[rng.Intn(len(addrs))], rng.Int31(), rng.Intn(4) != 0
					for _, e := range []*Entry{q.Get(slot), &ref.ring[slot]} {
						e.AddrReady, e.Addr = true, a
						if e.IsStore {
							e.DataReady, e.DataI = dataReady, d
						}
					}
				case op < 8: // a load attempts to issue
					if q.Len() == 0 {
						continue
					}
					slot := (q.head + rng.Intn(q.Len())) % capacity
					seq := q.ring[slot].Seq
					k1, k2 := q.OlderStoreAddrsKnown(seq), ref.olderStoreAddrsKnown(seq)
					if k1 != k2 {
						t.Fatalf("cap %d seed %d step %d: OlderStoreAddrsKnown(%d) = %v, ref %v", capacity, seed, step, seq, k1, k2)
					}
					if !k1 {
						continue
					}
					a, sz := addrs[rng.Intn(len(addrs))], sizes[rng.Intn(len(sizes))]
					r1, s1 := q.SearchForLoad(slot, a, sz)
					r2, s2, i2, f2 := ref.searchForLoad(seq, a, sz)
					var i1 int32
					var f1 float64
					if r1 == Forwarded {
						i1, f1 = q.Get(s1).DataI, q.Get(s1).DataF
					}
					if r1 != r2 || s1 != s2 || i1 != i2 || f1 != f2 {
						t.Fatalf("cap %d seed %d step %d: SearchForLoad(slot %d) = (%v,slot %d,%d,%v), ref (%v,slot %d,%d,%v)",
							capacity, seed, step, slot, r1, s1, i1, f1, r2, s2, i2, f2)
					}
					if r1 == MustWait && (!q.Live(s1) || !q.Blocks(s1, a, sz)) {
						t.Fatalf("cap %d seed %d step %d: search waits on slot %d, but Live=%v Blocks=%v",
							capacity, seed, step, s1, q.Live(s1), q.Blocks(s1, a, sz))
					}
				case op == 8: // commit, or squash a younger suffix
					if q.Len() == 0 {
						continue
					}
					if rng.Intn(2) == 0 {
						if e1, e2 := q.PopHead(), ref.popHead(); e1 != e2 {
							t.Fatalf("cap %d seed %d step %d: pop %+v vs ref %+v", capacity, seed, step, e1, e2)
						}
					} else {
						cut := q.Head().Seq - 1 + uint64(rng.Intn(q.Len()+1))
						q.SquashAfter(cut)
						ref.squashAfter(cut)
					}
				default: // snapshot round trip, or restore an older image
					if !haveSaved || rng.Intn(2) == 0 {
						saved, savedRef, haveSaved = q.ExportState(), cloneRef(ref), true
						continue
					}
					fresh := New(capacity)
					if rng.Intn(2) == 0 {
						fresh = q // import over the live queue and its cursor
					}
					if err := fresh.ImportState(saved); err != nil {
						t.Fatal(err)
					}
					q, ref = fresh, cloneRef(savedRef)
					nextSeq = max(nextSeq, lastSeq(ref))
				}
				if q.Len() != ref.count || q.head != ref.head ||
					q.Searches != ref.searches || q.Forwards != ref.forwards || q.ConflictStalls != ref.conflictStalls {
					t.Fatalf("cap %d seed %d step %d: queue (head %d len %d S%d F%d C%d) vs ref (head %d len %d S%d F%d C%d)",
						capacity, seed, step, q.head, q.Len(), q.Searches, q.Forwards, q.ConflictStalls,
						ref.head, ref.count, ref.searches, ref.forwards, ref.conflictStalls)
				}
			}
		}
	}
}

func cloneRef(r *refLSQ) *refLSQ {
	c := *r
	c.ring = append([]Entry(nil), r.ring...)
	return &c
}

func lastSeq(r *refLSQ) uint64 {
	if r.count == 0 {
		return 0
	}
	return r.ring[(r.head+r.count-1)%len(r.ring)].Seq
}
