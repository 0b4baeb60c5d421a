package sim

import (
	"math/rand"
	"testing"
)

// heapQueue is the engine's former binary min-heap, ported over qent and
// kept test-only as the ordering oracle: the calendar queue must produce
// the byte-identical (at, seq) pop sequence on any workload.
type heapQueue struct {
	ents []qent
}

func (h *heapQueue) Len() int { return len(h.ents) }

func (h *heapQueue) push(e qent) {
	h.ents = append(h.ents, e)
	i := len(h.ents) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !qentLess(h.ents[i], h.ents[parent]) {
			break
		}
		h.ents[i], h.ents[parent] = h.ents[parent], h.ents[i]
		i = parent
	}
}

func (h *heapQueue) pop() (qent, bool) {
	if len(h.ents) == 0 {
		return qent{}, false
	}
	top := h.ents[0]
	last := len(h.ents) - 1
	h.ents[0] = h.ents[last]
	h.ents = h.ents[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.ents) && qentLess(h.ents[l], h.ents[smallest]) {
			smallest = l
		}
		if r < len(h.ents) && qentLess(h.ents[r], h.ents[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top, true
		}
		h.ents[i], h.ents[smallest] = h.ents[smallest], h.ents[i]
		i = smallest
	}
}

// oracleWorld drives a calendar queue (with its arena and reap callback
// wired exactly as the engine wires them) and the heap oracle through the
// same stream of operations.
type oracleWorld struct {
	t         *testing.T
	arena     eventArena
	cal       calendarQueue
	heap      heapQueue
	reaped    int
	dead      map[uint64]bool // seq -> cancelled, the heap side's view
	pending   []qent          // live entries available to cancel
	seq       uint64
	now       Time // engine clock: pops are monotone, pushes never precede it
	delivered int
}

func newOracleWorld(t *testing.T) *oracleWorld {
	w := &oracleWorld{t: t, dead: map[uint64]bool{}}
	w.cal.arena = &w.arena
	w.cal.drop = func(qe qent) bool {
		ev := w.arena.get(qe.ref)
		if !ev.dead {
			return false
		}
		w.reaped++
		w.arena.release(qe.ref)
		return true
	}
	return w
}

func (w *oracleWorld) push(at Time) {
	if at < w.now {
		at = w.now
	}
	ref, ev := w.arena.alloc()
	ev.at, ev.seq = at, w.seq
	e := qent{at: at, seq: w.seq, ref: ref}
	w.seq++
	w.cal.push(e)
	w.heap.push(e)
	w.pending = append(w.pending, e)
}

// cancel marks a random live pending entry dead, as Timer.Cancel does.
func (w *oracleWorld) cancel(r *rand.Rand) {
	if len(w.pending) == 0 {
		return
	}
	i := r.Intn(len(w.pending))
	e := w.pending[i]
	w.pending[i] = w.pending[len(w.pending)-1]
	w.pending = w.pending[:len(w.pending)-1]
	w.dead[e.seq] = true
	w.arena.get(e.ref).dead = true
}

// popLive advances both queues to their next live delivery and asserts the
// (at, seq) keys match; it mirrors the engine's dead-skip loop. Returns
// false when both queues are exhausted.
func (w *oracleWorld) popLive() bool {
	var calEnt qent
	calOK := false
	for {
		e, ok := w.cal.pop()
		if !ok {
			break
		}
		ev := w.arena.get(e.ref)
		if ev.dead {
			w.arena.release(e.ref)
			continue
		}
		ev.dead = true
		w.arena.release(e.ref)
		calEnt, calOK = e, true
		break
	}
	var heapEnt qent
	heapOK := false
	for {
		e, ok := w.heap.pop()
		if !ok {
			break
		}
		if w.dead[e.seq] {
			delete(w.dead, e.seq)
			continue
		}
		heapEnt, heapOK = e, true
		break
	}
	if calOK != heapOK {
		w.t.Fatalf("after %d deliveries: calendar live=%v heap live=%v", w.delivered, calOK, heapOK)
	}
	if !calOK {
		return false
	}
	if calEnt.at != heapEnt.at || calEnt.seq != heapEnt.seq {
		w.t.Fatalf("delivery %d diverged: calendar (%d,%d) vs heap (%d,%d)",
			w.delivered, calEnt.at, calEnt.seq, heapEnt.at, heapEnt.seq)
	}
	if calEnt.at < w.now {
		w.t.Fatalf("delivery %d went back in time: %d after clock %d", w.delivered, calEnt.at, w.now)
	}
	w.now = calEnt.at
	w.delivered++
	// Drop the delivered entry from the cancellable set.
	for i, p := range w.pending {
		if p.seq == calEnt.seq {
			w.pending[i] = w.pending[len(w.pending)-1]
			w.pending = w.pending[:len(w.pending)-1]
			break
		}
	}
	return true
}

// TestQueueOracleRandomized locks the ordering contract: on randomized
// push/pop/cancel streams — same-instant FIFO ties, zero delays, far-future
// ladder spills, bursts and droughts — the calendar queue delivers the
// byte-identical (at, seq) sequence as the binary heap it replaced.
func TestQueueOracleRandomized(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := newOracleWorld(t)
		var lastAt Time
		for op := 0; op < 20000; op++ {
			switch k := r.Intn(100); {
			case k < 55: // push
				var at Time
				switch c := r.Intn(10); {
				case c < 4:
					at = w.now + Time(r.Intn(2000)) // near cluster
				case c < 6:
					at = w.now // zero delay
				case c < 8:
					at = lastAt // same-instant FIFO tie
				case c < 9:
					at = w.now + Time(r.Intn(int(30*Second))) // mid-range
				default:
					at = w.now + 30*Second + Time(r.Intn(int(Minute))) // ladder spill
				}
				if at < w.now {
					at = w.now
				}
				lastAt = at
				w.push(at)
			case k < 70: // cancel a random pending entry
				w.cancel(r)
			default: // deliver
				w.popLive()
			}
		}
		for w.popLive() {
		}
		if got := w.cal.Len(); got != 0 {
			t.Fatalf("seed %d: calendar holds %d entries after exhaustion", seed, got)
		}
		if w.delivered == 0 {
			t.Fatalf("seed %d: oracle run delivered nothing", seed)
		}
	}
}

// TestQueueOracleBurstDrain covers the resize path: bursts far above the
// lane capacity force density rebuilds, full drains force ladder
// re-anchors, and the order must still match the heap throughout.
func TestQueueOracleBurstDrain(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	w := newOracleWorld(t)
	for cycle := 0; cycle < 20; cycle++ {
		n := 200 + r.Intn(3000)
		for i := 0; i < n; i++ {
			at := w.now + Time(r.Intn(1000))
			if r.Intn(20) == 0 {
				at = w.now + Time(30*Second) + Time(r.Intn(int(Second)))
			}
			w.push(at)
		}
		for i := 0; i < n/10; i++ {
			w.cancel(r)
		}
		for w.popLive() {
		}
		if w.cal.Len() != 0 || w.heap.Len() != 0 {
			t.Fatalf("cycle %d: queues not drained (cal %d, heap %d)", cycle, w.cal.Len(), w.heap.Len())
		}
	}
}

// TestQueueCancelledReapedOnRebuild proves the mass-cancel satellite:
// cancelled events are reaped (released, counted) when a rebuild touches
// them, rather than riding the lanes until popped.
func TestQueueCancelledReapedOnRebuild(t *testing.T) {
	w := newOracleWorld(t)
	// A ladder entry guarantees the drain ends in a rebuild.
	w.push(w.now + 40*Second)
	for i := 0; i < 400; i++ {
		w.push(w.now + Time(i))
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		w.cancel(r)
	}
	for w.popLive() {
	}
	if w.reaped == 0 {
		t.Fatal("no cancelled entries were reaped during rebuilds")
	}
	if w.cal.Len() != 0 {
		t.Fatalf("calendar holds %d entries after drain", w.cal.Len())
	}
}

// TestEngineCancelledCounter checks the public surface: cancelled events
// are counted whether discarded at pop time or reaped by a rebuild.
func TestEngineCancelledCounter(t *testing.T) {
	e := NewEngine()
	fired := 0
	keep, err := e.ScheduleEvent(5, fnEvent(func(*Engine) { fired++ }))
	if err != nil {
		t.Fatal(err)
	}
	var timers []*Timer
	for i := 0; i < 10; i++ {
		tm, err := e.ScheduleEvent(Time(10+i), fnEvent(func(*Engine) { fired++ }))
		if err != nil {
			t.Fatal(err)
		}
		timers = append(timers, tm)
	}
	for _, tm := range timers {
		if !tm.Cancel() {
			t.Fatal("cancel failed on a pending timer")
		}
	}
	_ = keep
	e.Run(0)
	if fired != 1 {
		t.Fatalf("fired %d events, want 1", fired)
	}
	if got := e.Cancelled(); got != 10 {
		t.Fatalf("Cancelled() = %d, want 10", got)
	}
}

// TestTimerSafeAfterReap checks that Timers whose events fired stay safely
// non-pending once the arena has recycled their slots and reissued them to
// new events.
func TestTimerSafeAfterReap(t *testing.T) {
	e := NewEngine()
	var timers []*Timer
	for i := 0; i < 4*arenaSlabSize; i++ {
		tm, err := e.ScheduleEvent(Time(i+1), fnEvent(func(*Engine) {}))
		if err != nil {
			t.Fatal(err)
		}
		timers = append(timers, tm)
	}
	e.Run(0)
	for _, tm := range timers {
		if tm.Pending() {
			t.Fatal("fired timer reports pending after recycle")
		}
		if tm.Cancel() {
			t.Fatal("fired timer cancelled after recycle")
		}
	}
	// Reissue every recycled slot: stale handles must not match the new
	// incarnations.
	for i := 0; i < 4*arenaSlabSize; i++ {
		e.PostEvent(Time(1), fnEvent(func(*Engine) {}))
	}
	for _, tm := range timers {
		if tm.Pending() {
			t.Fatal("stale timer matched a reissued slot")
		}
	}
	e.Run(0)
}
