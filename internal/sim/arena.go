package sim

// This file holds the engine's flat event storage. Events used to be
// individually heap-allocated and recycled through a pointer free list;
// they now live in slab-allocated arrays addressed by index handles. The
// drain loop walks contiguous memory instead of chasing pointers, the GC
// scans one object per slab instead of one per event, and a Timer can name
// its event as a compact (slab, index, generation) triple.

const (
	// arenaSlabBits sizes one slab at 1<<arenaSlabBits events: large
	// enough to amortise slab allocation to noise.
	arenaSlabBits = 8
	arenaSlabSize = 1 << arenaSlabBits
	arenaSlabMask = arenaSlabSize - 1
)

// eventRef addresses one event slot in an arena: slab index in the high
// bits, slot within the slab in the low arenaSlabBits. It is the handle
// stored in the calendar queue's lanes and inside Timers.
type eventRef uint32

type eventSlab [arenaSlabSize]event

// eventArena is slab-backed storage for one engine's events. All access is
// engine-local, so nothing here needs atomicity.
type eventArena struct {
	slabs []*eventSlab
	// free lists recycled slots, LIFO. Refs, not pointers: 4 bytes each and
	// invisible to the GC.
	free []eventRef
	// next is the bump pointer: slots [0, next) have been handed out at
	// least once, slots beyond live in the current tail slab untouched.
	next int
	// stamp issues a unique generation per allocation, so a stale Timer can
	// never match a later incarnation of its slot.
	stamp uint64
}

// get resolves a ref to its event slot. Slabs are never released, so every
// ref the arena has handed out stays resolvable.
func (a *eventArena) get(r eventRef) *event {
	return &a.slabs[r>>arenaSlabBits][r&arenaSlabMask]
}

// alloc hands out a slot: from the free list when one is available,
// otherwise from the bump region, growing by one slab when that is
// exhausted. The returned event carries a fresh generation and is
// otherwise uninitialised — the caller assigns every field.
func (a *eventArena) alloc() (eventRef, *event) {
	var r eventRef
	if n := len(a.free); n > 0 {
		r = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		if a.next == len(a.slabs)*arenaSlabSize {
			a.slabs = append(a.slabs, new(eventSlab))
		}
		r = eventRef(a.next)
		a.next++
	}
	ev := a.get(r)
	a.stamp++
	ev.gen = a.stamp
	ev.dead = false
	return r, ev
}

// release returns a slot to the free list. The event keeps its generation
// until the slot's next alloc stamps a fresh one; callers clear the
// reference-holding fields before releasing.
func (a *eventArena) release(r eventRef) {
	a.free = append(a.free, r)
}

// freeLen returns the recycled-slot count (the engine's pooled-event
// capacity, as surfaced by Engine.FreeListLen).
func (a *eventArena) freeLen() int { return len(a.free) }

// Slab is a generic slab allocator for pooled values: it hands out *T
// pointers carved from fixed-size blocks instead of one heap object per
// value. Callers keep their own free lists (recycling is unchanged); Slab
// only replaces the cold-path `new(T)` so that pool growth costs one
// allocation per block, values sit contiguously for cache locality, and
// the GC scans block headers instead of thousands of individual objects.
// The zero value is ready to use.
type Slab[T any] struct {
	block []T
}

// slabBlockLen is the number of values carved from one block.
const slabBlockLen = 64

// New returns a pointer to a zero T with slab-backed storage. Previously
// returned pointers stay valid: a full block is abandoned to its
// outstanding pointers and a fresh one is carved.
func (s *Slab[T]) New() *T {
	if len(s.block) == cap(s.block) {
		s.block = make([]T, 0, slabBlockLen)
	}
	var zero T
	s.block = append(s.block, zero)
	return &s.block[len(s.block)-1]
}
