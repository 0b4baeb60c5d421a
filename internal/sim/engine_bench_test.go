package sim

import "testing"

// BenchmarkQueueMixed measures heap behaviour under a realistic mixed
// horizon: many timers at staggered deadlines.
func BenchmarkQueueMixed(b *testing.B) {
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustSchedule(e, Time(i%1000)*Millisecond, func(*Engine) {})
		if i%1000 == 999 {
			e.Run(0)
		}
	}
	e.Run(0)
}

// BenchmarkTimerCancel measures schedule+cancel churn (retransmission
// timers that usually do not fire).
func BenchmarkTimerCancel(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		t := mustSchedule(e, Second, func(*Engine) {})
		t.Cancel()
		if i%4096 == 4095 {
			e.Drain()
		}
	}
}

// BenchmarkPostEvent measures raw event throughput: schedule+deliver of
// one pooled, chained typed event, the simulator's innermost loop.
func BenchmarkPostEvent(b *testing.B) {
	e := NewEngine()
	ev := &benchChainEvent{remaining: b.N}
	e.PostEvent(Millisecond, ev)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(0)
}

type benchChainEvent struct{ remaining int }

func (ev *benchChainEvent) Fire(e *Engine) {
	if ev.remaining > 0 {
		ev.remaining--
		e.PostEvent(Millisecond, ev)
	}
}

// BenchmarkQueuePushPop compares the calendar queue against the binary
// heap it replaced (kept as the test-only oracle) on a steady-state mixed
// workload: a fixed-depth queue with near-clustered timestamps, periodic
// far-future spills, and interleaved push/pop — the shape a protocol run
// produces. The calendar side pays its arena alloc/release per op, exactly
// as the engine does.
func BenchmarkQueuePushPop(b *testing.B) {
	const depth = 4096
	workload := func(b *testing.B, push func(at Time, seq uint64), pop func() (Time, bool)) {
		var seq uint64
		var now Time
		x := uint64(0x9e3779b97f4a7c15)
		next := func(mod int64) int64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int64(x % uint64(mod))
		}
		at := func() Time {
			if next(50) == 0 {
				return now + 30*Second + Time(next(int64(Second)))
			}
			return now + Time(next(2000))
		}
		for i := 0; i < depth; i++ {
			push(at(), seq)
			seq++
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			push(at(), seq)
			seq++
			if t, ok := pop(); ok {
				now = t
			}
		}
		b.StopTimer()
		for {
			if _, ok := pop(); !ok {
				break
			}
		}
	}
	b.Run("calendar", func(b *testing.B) {
		var arena eventArena
		var q calendarQueue
		q.arena = &arena
		workload(b,
			func(at Time, seq uint64) {
				ref, ev := arena.alloc()
				ev.at, ev.seq = at, seq
				q.push(qent{at: at, seq: seq, ref: ref})
			},
			func() (Time, bool) {
				e, ok := q.pop()
				if ok {
					arena.release(e.ref)
				}
				return e.at, ok
			})
	})
	b.Run("heap", func(b *testing.B) {
		var q heapQueue
		workload(b,
			func(at Time, seq uint64) { q.push(qent{at: at, seq: seq}) },
			func() (Time, bool) {
				e, ok := q.pop()
				return e.at, ok
			})
	})
}

// BenchmarkRNGStream measures substream derivation cost.
func BenchmarkRNGStream(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Stream("peer")
	}
}
