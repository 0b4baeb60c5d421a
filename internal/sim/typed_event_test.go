package sim

import (
	"testing"
)

// countEvent is a minimal typed event: it appends its tag to a shared log
// and optionally schedules a follow-up on the delivering engine.
type countEvent struct {
	log  *[]int
	tag  int
	next *countEvent
	in   Time
}

func (ev *countEvent) Fire(e *Engine) {
	*ev.log = append(*ev.log, ev.tag)
	if ev.next != nil {
		e.PostEvent(ev.in, ev.next)
	}
}

func (ev *countEvent) EventName() string { return "count" }

func TestTypedEventDispatch(t *testing.T) {
	e := NewEngine()
	var log []int
	b := &countEvent{log: &log, tag: 2}
	a := &countEvent{log: &log, tag: 1, next: b, in: 5 * Millisecond}
	e.PostEvent(10*Millisecond, a)
	if n := e.Run(0); n != 2 {
		t.Fatalf("delivered %d events, want 2", n)
	}
	if len(log) != 2 || log[0] != 1 || log[1] != 2 {
		t.Fatalf("log = %v", log)
	}
	if e.Now() != 15*Millisecond {
		t.Fatalf("clock = %v, want 15ms", e.Now())
	}
}

// TestTypedAndHandlerEventsShareFIFO interleaves plain handler functions
// (through the fnEvent adapter) with a pooled struct event at one instant:
// delivery follows scheduling order whatever the concrete event type.
func TestTypedAndHandlerEventsShareFIFO(t *testing.T) {
	e := NewEngine()
	var log []int
	e.PostEvent(5*Millisecond, fnEvent(func(*Engine) { log = append(log, 0) }))
	e.PostEvent(5*Millisecond, &countEvent{log: &log, tag: 1})
	e.PostEvent(5*Millisecond, fnEvent(func(*Engine) { log = append(log, 2) }))
	e.PostEvent(5*Millisecond, &countEvent{log: &log, tag: 3})
	e.Run(0)
	for i, v := range log {
		if v != i {
			t.Fatalf("same-instant events of different types not FIFO: %v", log)
		}
	}
	if len(log) != 4 {
		t.Fatalf("delivered %d events, want 4", len(log))
	}
}

// TestPostEventZeroAlloc locks the tentpole claim: scheduling and firing a
// pooled typed event allocates nothing in steady state (the engine's
// internal wrappers come from its free list, and a pointer-typed Event in
// the interface field does not box).
func TestPostEventZeroAlloc(t *testing.T) {
	e := NewEngine()
	var log []int
	ev := &countEvent{log: &log, tag: 0}
	// Warm the free list and the log's capacity.
	e.PostEvent(Millisecond, ev)
	e.Run(0)
	log = log[:0]
	n := testing.AllocsPerRun(200, func() {
		log = log[:0]
		e.PostEvent(Millisecond, ev)
		e.Run(0)
	})
	if n != 0 {
		t.Fatalf("PostEvent+Run allocated %.1f per cycle, want 0", n)
	}
}

func TestScheduleEventCancel(t *testing.T) {
	e := NewEngine()
	var log []int
	tm, err := e.ScheduleEvent(10*Millisecond, &countEvent{log: &log, tag: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !tm.Pending() {
		t.Fatal("timer should be pending before cancel")
	}
	if !tm.Cancel() {
		t.Fatal("first cancel should report pending")
	}
	e.Run(0)
	if len(log) != 0 {
		t.Fatalf("cancelled typed event fired: %v", log)
	}
}

func TestEventName(t *testing.T) {
	if got := EventName(&countEvent{}); got != "count" {
		t.Fatalf("EventName(named) = %q", got)
	}
	if got := EventName(anonEvent{}); got != "sim.anonEvent" {
		t.Fatalf("EventName(unnamed) = %q", got)
	}
}

type anonEvent struct{}

func (anonEvent) Fire(*Engine) {}

func TestObserverSeesTypedEvents(t *testing.T) {
	e := NewEngine()
	var names []string
	var ats []Time
	e.SetObserver(func(at Time, ev Event) {
		names = append(names, EventName(ev))
		ats = append(ats, at)
	})
	var log []int
	e.PostEvent(2*Millisecond, &countEvent{log: &log, tag: 1})
	e.PostEvent(Millisecond, anonEvent{})
	e.Run(0)
	if len(names) != 2 || names[0] != "sim.anonEvent" || ats[0] != Millisecond ||
		names[1] != "count" || ats[1] != 2*Millisecond {
		t.Fatalf("observer saw %v at %v", names, ats)
	}
}

// TestTimerStaleGenerationInvalidated covers the recycled-event hazard: a
// Timer held across its event's delivery must not be able to cancel the
// free-listed event's next incarnation.
func TestTimerStaleGenerationInvalidated(t *testing.T) {
	e := NewEngine()
	fired := 0
	t1 := mustSchedule(e, Millisecond, func(*Engine) { fired++ })
	e.Run(0)
	if fired != 1 {
		t.Fatal("first event did not fire")
	}
	if t1.Pending() {
		t.Fatal("fired timer still pending")
	}
	// The second schedule reuses the recycled internal event; the stale
	// handle must observe the bumped generation.
	t2 := mustSchedule(e, Millisecond, func(*Engine) { fired++ })
	if t1.Pending() {
		t.Fatal("stale timer reports pending for the recycled event")
	}
	if t1.Cancel() {
		t.Fatal("stale timer claims to have cancelled something")
	}
	if !t2.Pending() {
		t.Fatal("stale Cancel killed the new incarnation")
	}
	e.Run(0)
	if fired != 2 {
		t.Fatalf("second incarnation did not fire (fired=%d)", fired)
	}
}

// TestTimerCancelledThenRecycled is the cancel-side variant: a cancelled
// event is recycled at delivery time, and the cancelling handle must stay
// dead across the recycle.
func TestTimerCancelledThenRecycled(t *testing.T) {
	e := NewEngine()
	fired := 0
	t1 := mustSchedule(e, Millisecond, func(*Engine) { fired++ })
	t1.Cancel()
	e.Run(0)
	if fired != 0 {
		t.Fatal("cancelled event fired")
	}
	t2 := mustSchedule(e, Millisecond, func(*Engine) { fired++ })
	if t1.Pending() || t1.Cancel() {
		t.Fatal("cancelled stale timer interacts with recycled event")
	}
	e.Run(0)
	if fired != 1 || t2.Pending() {
		t.Fatalf("recycled event lifecycle broken: fired=%d", fired)
	}
}

// TestDeadTimerFromHorizon covers the horizon-dropped path: ScheduleEventAt
// beyond the horizon returns the shared permanently-dead timer.
func TestDeadTimerFromHorizon(t *testing.T) {
	e := NewEngine()
	e.SetHorizon(10 * Millisecond)
	tm, err := e.ScheduleEventAt(20*Millisecond, fnEvent(func(*Engine) { t.Fatal("dropped event fired") }))
	if err != nil {
		t.Fatalf("horizon drop should not error: %v", err)
	}
	if tm.Pending() {
		t.Fatal("horizon-dropped timer reports pending")
	}
	if tm.Cancel() {
		t.Fatal("horizon-dropped timer claims a cancellation")
	}
	te, err := e.ScheduleEventAt(20*Millisecond, anonEvent{})
	if err != nil || te.Pending() || te.Cancel() {
		t.Fatalf("typed horizon drop: timer=%v err=%v", te.Pending(), err)
	}
	// The shared dead timer must never alias a live event.
	live := mustSchedule(e, 5*Millisecond, func(*Engine) {})
	if tm.Cancel() || !live.Pending() {
		t.Fatal("dead timer affected a live event")
	}
	if n := e.Run(0); n != 1 {
		t.Fatalf("delivered %d events, want 1 (the live one)", n)
	}
}
