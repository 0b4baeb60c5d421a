package sim

import "slices"

// The engine's pending-event store is a deterministic calendar queue:
// time-bucketed lanes over (at, seq) with an overflow ladder for far-future
// events. Simulation timestamps cluster tightly — link latencies are
// bounded below by the model's one-way floor and above by the RTT ceiling
// plus gossip periods — which is exactly the distribution where calendar
// scheduling is O(1) amortised: a push lands in its lane by two shifts and
// a mask, a pop reads the memoised minimum lane, and the only O(n) work is
// an occasional geometry rebuild whose cost is amortised over the window
// it installs.
//
// Ordering contract: pops come out in strictly increasing (at, seq) — the
// identical total order the old binary heap produced, locked by the oracle
// test that runs both queues side by side on randomized workloads. seq is
// the engine's scheduling sequence, so same-instant events are FIFO.
//
// Geometry. The calendar covers one window of nb contiguous virtual
// buckets, each spanning width = 1<<wshift ticks; an event's virtual
// bucket is at>>wshift and its lane is vb&(nb-1). Exactly one virtual
// bucket maps to each lane within a window, so the earliest non-empty lane
// at or after the consumption cursor holds the global minimum. Lanes are
// intrusive sorted lists threaded through the event arena (each slot's
// next ref), so pushing never allocates — steady-state scheduling touches
// no allocator at all, preserving the zero-alloc gossip contract. Each
// lane's head and tail keys are cached inline in the lane table, so the
// push fast paths (empty lane, in-order append, new minimum) and the peek
// scan compare against contiguous cached keys instead of chasing arena
// pointers; only a mid-lane insert (rare at ~one event per lane, see the
// width rule in rebuild) walks event slots.
//
// Events beyond the window's fixed admission edge (endVB) go to the
// ladder — a binary min-heap holding gossip self-reschedules, scenario
// phases and finalize deadlines — so a far-future push costs O(log ladder)
// and a rebuild only ever touches the ladder entries that enter the new
// window, never the far tail. (An earlier sorted-array ladder re-sorted
// the whole spill on every drain, which made long runs with a standing
// far population superlinear.) When the calendar drains, a rebuild
// re-anchors the window at the global minimum, re-deriving width from the
// observed head density and lane count from the pending population. A
// rebuild also fires when in-window population outgrows the lane count
// (density resize) and reaps cancelled events instead of re-bucketing
// them.
//
// Everything here is a pure function of the push/pop sequence — no clocks,
// no randomness — so runs stay bit-reproducible.

const (
	// calMinBuckets / calMaxBuckets bound the lane count; rebuilds pick a
	// power of two covering the pending population.
	calMinBuckets = 64
	calMaxBuckets = 8192
	// calMaxWShift caps lane width at 2^40 ticks (~13 virtual days per
	// lane) so degenerate gap estimates cannot overflow the vb arithmetic.
	calMaxWShift = 40
	// calInitWShift is the pre-adaptation lane width (1.024ms): the right
	// order of magnitude for link-latency workloads, corrected by the first
	// rebuild anyway.
	calInitWShift = 10
	// calGrowFactor triggers a density rebuild when in-window population
	// exceeds this many events per lane.
	calGrowFactor = 4
	// calDensitySample is how many head entries a rebuild inspects to
	// derive the new lane width.
	calDensitySample = 64
)

// nilRef terminates lane chains; no real slot carries it (slab 0xffffff
// would need 4 billion live events).
const nilRef = ^eventRef(0)

// qent is one queued event: its total-order key plus the arena handle. The
// ladder, the rebuild scratch, the lane key cache and the queue's public
// peek/pop results use this flat 24-byte form; lane membership itself is
// threaded through the arena slots' next refs.
type qent struct {
	at  Time
	seq uint64
	ref eventRef
}

// qentLess is the queue's total order: (at, seq) ascending. seq values are
// unique per engine, so the order is strict.
func qentLess(a, b qent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// beforeNode compares a key against an arena slot's key.
func beforeNode(e qent, n *event) bool {
	if e.at != n.at {
		return e.at < n.at
	}
	return e.seq < n.seq
}

// lane caches its list's boundary keys: head is the lane minimum (the ref
// doubles as the list head, nilRef when empty), tail the maximum (valid
// only when head.ref != nilRef).
type lane struct {
	head qent
	tail qent
}

type calendarQueue struct {
	// arena resolves lane links; installed by NewEngine (tests driving the
	// queue raw install their own).
	arena *eventArena
	// drop, when non-nil, is asked about every entry a rebuild touches;
	// returning true reaps the entry (the owner has recycled it — the
	// engine routes cancelled events here so mass-cancel workloads don't
	// bloat the lanes).
	drop func(qent) bool

	lanes  []lane
	nb     int   // lane count, power of two
	wshift uint  // lane width is 1<<wshift ticks
	baseVB int64 // first virtual bucket of the window
	endVB  int64 // admission edge: vb >= endVB spills to the ladder
	curVB  int64 // consumption cursor (virtual bucket of the last pop)
	cnt0   int   // entries currently in lanes

	// peekB memoises the lane holding the current minimum (-1 when
	// unknown) and peekEnt its key: pop consumes the memo, pushes that
	// beat the minimum move it — all in registers.
	peekB   int
	peekEnt qent

	// ladder is the overflow spill: entries with vb >= endVB (plus the
	// rare pre-pop undercut), kept as a binary min-heap over (at, seq).
	ladder []qent

	scratch []qent // rebuild gather buffer, reused
	n       int    // total entries (lanes + ladder)
}

// Len returns the number of queued entries, including cancelled events not
// yet discarded.
func (q *calendarQueue) Len() int { return q.n }

// push inserts e, growing the window geometry when density demands it.
func (q *calendarQueue) push(e qent) {
	if q.nb == 0 {
		q.initGeometry(e.at)
	} else if q.n == 0 {
		// Empty queue: re-anchor the window at the new head, keeping the
		// adapted geometry.
		q.baseVB = int64(e.at) >> q.wshift
		q.endVB = q.baseVB + int64(q.nb)
		q.curVB = q.baseVB
	}
	q.n++
	vb := int64(e.at) >> q.wshift
	if vb >= q.endVB {
		// Far-future: spill to the ladder.
		q.ladderPush(e)
		return
	}
	if vb < q.curVB {
		// Below the consumption cursor — only possible before the first
		// pop of a freshly anchored window (the engine forbids scheduling
		// in the past). Spill and re-anchor around the new minimum.
		q.ladderPush(e)
		q.rebuild()
		return
	}
	q.link(int(vb&int64(q.nb-1)), e)
	q.cnt0++
	if q.peekB >= 0 && qentLess(e, q.peekEnt) {
		// Only a lane-head insert can beat the global minimum, so the new
		// minimum is e itself.
		q.peekB = int(vb & int64(q.nb-1))
		q.peekEnt = e
	}
	if q.cnt0 > q.nb*calGrowFactor && q.nb < calMaxBuckets {
		q.rebuild()
	}
}

// initGeometry anchors a zero-value queue on its first entry.
func (q *calendarQueue) initGeometry(at Time) {
	q.nb = calMinBuckets
	q.wshift = calInitWShift
	q.lanes = makeLanes(q.nb)
	q.baseVB = int64(at) >> q.wshift
	q.endVB = q.baseVB + int64(q.nb)
	q.curVB = q.baseVB
	q.peekB = -1
}

func makeLanes(nb int) []lane {
	lanes := make([]lane, nb)
	for i := range lanes {
		lanes[i].head.ref = nilRef
	}
	return lanes
}

// link threads e into lane b keeping the list sorted. The fast paths —
// empty lane, in-order append, new lane minimum — decide on the cached
// boundary keys without reading any event slot beyond e's own (still hot
// from its alloc); only a mid-lane insert walks the list, and the
// median-gap lane width keeps that walk to a couple of events.
func (q *calendarQueue) link(b int, e qent) {
	ln := &q.lanes[b]
	node := q.arena.get(e.ref)
	switch {
	case ln.head.ref == nilRef:
		node.next = nilRef
		ln.head, ln.tail = e, e
	case !qentLess(e, ln.tail):
		node.next = nilRef
		q.arena.get(ln.tail.ref).next = e.ref
		ln.tail = e
	case qentLess(e, ln.head):
		node.next = ln.head.ref
		ln.head = e
	default:
		prev := q.arena.get(ln.head.ref)
		for {
			cur := prev.next // never nilRef: e sorts before the tail
			cn := q.arena.get(cur)
			if beforeNode(e, cn) {
				node.next = cur
				prev.next = e.ref
				return
			}
			prev = cn
		}
	}
}

// ladderPush inserts e into the far-future min-heap.
func (q *calendarQueue) ladderPush(e qent) {
	q.ladder = append(q.ladder, e)
	i := len(q.ladder) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !qentLess(q.ladder[i], q.ladder[parent]) {
			break
		}
		q.ladder[i], q.ladder[parent] = q.ladder[parent], q.ladder[i]
		i = parent
	}
}

// ladderPop removes and returns the ladder's minimum entry.
func (q *calendarQueue) ladderPop() qent {
	top := q.ladder[0]
	last := len(q.ladder) - 1
	q.ladder[0] = q.ladder[last]
	q.ladder = q.ladder[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.ladder) && qentLess(q.ladder[l], q.ladder[smallest]) {
			smallest = l
		}
		if r < len(q.ladder) && qentLess(q.ladder[r], q.ladder[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		q.ladder[i], q.ladder[smallest] = q.ladder[smallest], q.ladder[i]
		i = smallest
	}
}

// peek returns the minimum entry without removing it.
func (q *calendarQueue) peek() (qent, bool) {
	for {
		if q.n == 0 {
			return qent{}, false
		}
		if q.peekB >= 0 {
			return q.peekEnt, true
		}
		if q.cnt0 > 0 {
			// The earliest non-empty lane at or after the cursor holds the
			// window minimum: one virtual bucket per lane, no entry can
			// exist below the cursor, and each lane's minimum is its cached
			// head key — the scan reads only the contiguous lane table.
			for vb := q.curVB; vb < q.endVB; vb++ {
				b := int(vb & int64(q.nb-1))
				if q.lanes[b].head.ref == nilRef {
					continue
				}
				q.curVB = vb
				q.peekB = b
				q.peekEnt = q.lanes[b].head
				return q.peekEnt, true
			}
			panic("sim: calendar queue lost an in-window event")
		}
		// Lanes drained; re-anchor the window from the ladder. The rebuild
		// may reap cancelled entries and leave the queue empty, hence the
		// loop.
		q.rebuild()
	}
}

// pop removes and returns the minimum entry.
func (q *calendarQueue) pop() (qent, bool) {
	e, ok := q.peek()
	if !ok {
		return qent{}, false
	}
	node := q.arena.get(e.ref)
	ln := &q.lanes[q.peekB]
	if node.next == nilRef {
		ln.head.ref = nilRef
	} else {
		// Refresh the cached head key from the new head — the next event
		// this lane will surface, so the read doubles as a prefetch.
		nn := q.arena.get(node.next)
		ln.head = qent{at: nn.at, seq: nn.seq, ref: node.next}
	}
	q.peekB = -1
	q.cnt0--
	q.n--
	q.curVB = int64(e.at) >> q.wshift
	return e, true
}

// rebuild installs a fresh window: lane count sized to the population,
// lane width derived from the head's observed density, the ladder keeping
// the far remainder untouched. Runs when the calendar drains into its
// ladder, when density outgrows the lanes, or when a pre-pop push
// undercuts a fresh anchor. Every entry a rebuild touches is offered to
// drop, reaping cancelled events; the far ladder tail is never scanned,
// so rebuild cost is bounded by the window population, not the total
// pending population.
func (q *calendarQueue) rebuild() {
	// Gather the window in ascending order: walking virtual buckets from
	// the cursor visits lanes in time order, and each lane is sorted, so
	// the scratch is born sorted — no sort anywhere in the queue.
	scratch := q.scratch[:0]
	if q.cnt0 > 0 {
		left := q.cnt0
		for vb := q.curVB; vb < q.endVB && left > 0; vb++ {
			b := int(vb & int64(q.nb-1))
			for r := q.lanes[b].head.ref; r != nilRef; {
				node := q.arena.get(r)
				next := node.next
				e := qent{at: node.at, seq: node.seq, ref: r}
				left--
				if q.drop == nil || !q.drop(e) {
					scratch = append(scratch, e)
				}
				r = next
			}
			q.lanes[b].head.ref = nilRef
		}
	}
	q.cnt0 = 0
	q.peekB = -1
	// Lanes empty (a drain re-anchor): seed the head sample from the
	// ladder, whose pops arrive in ascending order.
	if len(scratch) == 0 {
		for len(q.ladder) > 0 && len(scratch) < calDensitySample {
			e := q.ladderPop()
			if q.drop != nil && q.drop(e) {
				continue
			}
			scratch = append(scratch, e)
		}
	}
	q.n = len(scratch) + len(q.ladder)
	if q.n == 0 {
		q.scratch = scratch
		return
	}

	// Lane count: one power-of-two step above the population, bounded.
	// Never shrunk within a run: regrowing on the next burst would cost
	// the very allocations the steady state avoids.
	nb := q.nb
	for nb < q.n && nb < calMaxBuckets {
		nb <<= 1
	}
	// Lane width: ~1 median head gap, so the dense near cluster spreads at
	// about one event per lane while far spills stay on the ladder. The
	// median, not the mean: a bimodal head (a dense near cluster followed
	// by a far band, e.g. traffic plus standing gossip timers) has one
	// huge gap that would blow up a span-based estimate and collapse the
	// whole cluster into a single lane.
	wshift := q.wshift
	if k := min(len(scratch), calDensitySample); k > 1 {
		var gaps [calDensitySample - 1]int64
		for i := 0; i < k-1; i++ {
			gaps[i] = int64(scratch[i+1].at) - int64(scratch[i].at)
		}
		g := gaps[:k-1]
		slices.Sort(g) // in place on the stack array: rebuilds stay alloc-free
		target := g[(k-1)/2] + 1
		wshift = 0
		for int64(1)<<wshift < target && wshift < calMaxWShift {
			wshift++
		}
	}
	if nb != q.nb {
		q.lanes = makeLanes(nb)
	}
	q.nb, q.wshift = nb, wshift
	// Anchor at the global minimum: usually scratch[0], but a pre-pop
	// undercut parks the new minimum on the ladder.
	head := scratch[0]
	if len(q.ladder) > 0 && qentLess(q.ladder[0], head) {
		head = q.ladder[0]
	}
	q.baseVB = int64(head.at) >> wshift
	q.endVB = q.baseVB + int64(nb)
	q.curVB = q.baseVB
	for _, e := range scratch {
		vb := int64(e.at) >> wshift
		if vb >= q.endVB {
			// A narrower window than the sample span: back to the ladder.
			q.ladderPush(e)
			continue
		}
		// Ascending distribution makes every link an O(1) tail append.
		q.link(int(vb&int64(nb-1)), e)
		q.cnt0++
	}
	// Pull the ladder entries the new window admits; ascending pops keep
	// every link an O(1) tail append.
	for len(q.ladder) > 0 && int64(q.ladder[0].at)>>wshift < q.endVB {
		e := q.ladderPop()
		if q.drop != nil && q.drop(e) {
			q.n--
			continue
		}
		q.link(int((int64(e.at)>>wshift)&int64(nb-1)), e)
		q.cnt0++
	}
	q.scratch = scratch[:0]
}
