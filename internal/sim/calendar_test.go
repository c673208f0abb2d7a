package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestEventSize pins the calendar entry layout: events are stored by value,
// so every extra word is copied on each sift step of every push and pop.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("sizeof(event) = %d B, want 40", got)
	}
}

// oracleHeap is a container/heap reference implementation with the same
// (time, seq) ordering the calendar promises — the independent oracle the
// property test checks the inlined 4-ary heap against.
type oracleHeap []event

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// calPush mirrors Engine.push on a bare calendar for white-box testing.
func calPush(c *calendar, ev event) {
	*c = append(*c, ev)
	c.siftUp(len(*c) - 1)
}

// calPop mirrors Engine.pop on a bare calendar.
func calPop(c *calendar) event {
	q := *c
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	*c = q[:n]
	if n > 1 {
		c.siftDown(0)
	}
	return ev
}

// TestCalendarMatchesOracleProperty drives a randomized interleave of
// pushes and pops through both the 4-ary value calendar and a
// container/heap oracle and checks every popped (time, seq) pair agrees.
// Times are drawn from a small discrete set so equal-time ties are
// frequent and the seq tie-break is genuinely exercised.
func TestCalendarMatchesOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var cal calendar
		var oracle oracleHeap
		var seq uint64
		ops := 2000
		for i := 0; i < ops; i++ {
			if len(cal) != len(oracle) {
				t.Fatalf("trial %d: calendar has %d events, oracle %d", trial, len(cal), len(oracle))
			}
			// Push-biased so the structures grow, with bursts of pops.
			if len(cal) == 0 || rng.Intn(3) != 0 {
				seq++
				ev := event{time: float64(rng.Intn(16)), seq: seq}
				calPush(&cal, ev)
				heap.Push(&oracle, ev)
				continue
			}
			got := calPop(&cal)
			want := heap.Pop(&oracle).(event)
			if got.time != want.time || got.seq != want.seq {
				t.Fatalf("trial %d op %d: calendar popped (t=%g seq=%d), oracle (t=%g seq=%d)",
					trial, i, got.time, got.seq, want.time, want.seq)
			}
		}
		// Drain both and check the tail agrees too.
		for len(cal) > 0 {
			got := calPop(&cal)
			want := heap.Pop(&oracle).(event)
			if got.time != want.time || got.seq != want.seq {
				t.Fatalf("trial %d drain: calendar popped (t=%g seq=%d), oracle (t=%g seq=%d)",
					trial, got.time, got.seq, want.time, want.seq)
			}
		}
	}
}

// TestCalendarDrainIsSorted pushes random events and drains: the pop
// sequence must be non-decreasing in time and strictly increasing in seq
// within each time — the (time, seq) total order the engine's determinism
// rests on.
func TestCalendarDrainIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cal calendar
	for seq := uint64(1); seq <= 5000; seq++ {
		calPush(&cal, event{time: float64(rng.Intn(32)), seq: seq})
	}
	prev := event{time: math.Inf(-1)}
	for len(cal) > 0 {
		ev := calPop(&cal)
		if ev.time < prev.time {
			t.Fatalf("time went backwards: %g after %g", ev.time, prev.time)
		}
		if ev.time == prev.time && ev.seq <= prev.seq {
			t.Fatalf("seq order violated at t=%g: %d after %d", ev.time, ev.seq, prev.seq)
		}
		prev = ev
	}
}

// TestEqualTimeFIFOAtDepth schedules >10k events at the same instant and
// checks they fire in exactly the order scheduled. A deep equal-time
// burst is where a heap without the seq tie-break (or with a buggy sift)
// scrambles order; MPI collectives produce exactly this shape.
func TestEqualTimeFIFOAtDepth(t *testing.T) {
	const n = 15000
	e := NewEngine()
	got := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(1.0, func() { got = append(got, i) })
	}
	if hw := e.QueueHighWater(); hw != n {
		t.Fatalf("QueueHighWater = %d, want %d", hw, n)
	}
	e.Run()
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events out of FIFO order at %d: got %d", i, v)
		}
	}
}

// TestScheduleAtNowExactFastPath is the regression test for the
// ScheduleAt exact-equality fast path: scheduling at precisely the
// current time must never count a delay clamp, must fire at exactly now,
// and must keep FIFO order with Schedule(0, ...) calls — across clock
// values where t - now is most exposed to float rounding.
func TestScheduleAtNowExactFastPath(t *testing.T) {
	for _, now := range []float64{0, 1e-300, 3.3333333333333335e-5, 1.0, 1e16, 4.5e15 + 0.125} {
		now := now
		e := NewEngine()
		var order []int
		var fireTime float64
		e.ScheduleAt(now, func() {
			// Clock has advanced to now; interleave both APIs at t == now.
			e.Schedule(0, func() { order = append(order, 1) })
			e.ScheduleAt(e.Now(), func() {
				order = append(order, 2)
				fireTime = e.Now()
			})
			e.Schedule(0, func() { order = append(order, 3) })
		})
		e.Run()
		if neg, nan := e.ClampedDelays(); neg != 0 || nan != 0 {
			t.Fatalf("now=%g: ScheduleAt(now) counted clamps (%d neg, %d NaN), want none", now, neg, nan)
		}
		if fireTime != now {
			t.Fatalf("now=%g: ScheduleAt(now) fired at %g", now, fireTime)
		}
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
			t.Fatalf("now=%g: ScheduleAt(now) broke FIFO with Schedule(0): %v", now, order)
		}
	}
}

// TestScheduleAtPastStillClamps pins that the fast path did not widen:
// an absolute time genuinely below now still clamps (and is counted), as
// before.
func TestScheduleAtPastStillClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5, func() {
		e.ScheduleAt(4.5, func() { fired = true })
	})
	e.Run()
	if !fired {
		t.Fatal("past-time event never fired")
	}
	if e.Now() != 5 {
		t.Fatalf("time went backwards: %v", e.Now())
	}
	if neg, _ := e.ClampedDelays(); neg != 1 {
		t.Fatalf("clamped negatives = %d, want 1", neg)
	}
}

// --- Microbenchmarks on the engine's two scheduling paths ---------------

// BenchmarkScheduleChain measures the general callback path: each event
// schedules its successor, so an iteration is one push + one pop + one
// closure dispatch.
func BenchmarkScheduleChain(b *testing.B) {
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		if n++; n < b.N {
			e.Schedule(1e-6, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(1e-6, step)
	e.Run()
}

// BenchmarkTypedWakeup measures the typed wake-up path end to end: one
// iteration is a Sleep round trip — push + pop of a value event plus the
// two coroutine handoffs.
func BenchmarkTypedWakeup(b *testing.B) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1e-6)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkCalendarDepth measures push+pop cost at a standing calendar
// depth of 4096 — the regime of wide MPI collectives, where the 4-ary
// layout's shallower tree pays off.
func BenchmarkCalendarDepth(b *testing.B) {
	e := NewEngine()
	const depth = 4096
	for i := 0; i < depth; i++ {
		e.Schedule(float64(i)*1e-3, func() {})
	}
	var refill func()
	n := 0
	refill = func() {
		if n++; n < b.N {
			e.Schedule(depth*1e-3, refill)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, refill)
	e.Run()
}
