package des

import (
	"math/rand"
	"testing"
	"time"
)

func TestEventLoopOrderAndTies(t *testing.T) {
	l := NewEventLoop()
	var order []int
	l.At(3*time.Millisecond, func() { order = append(order, 3) })
	l.At(time.Millisecond, func() { order = append(order, 1) })
	// Two events at the same instant fire in schedule order.
	l.At(2*time.Millisecond, func() { order = append(order, 20) })
	l.At(2*time.Millisecond, func() { order = append(order, 21) })
	end := l.Run()
	want := []int{1, 20, 21, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if end != 3*time.Millisecond {
		t.Fatalf("final time %v, want 3ms", end)
	}
}

func TestEventLoopNestedScheduling(t *testing.T) {
	l := NewEventLoop()
	var ticks []time.Duration
	var tick func()
	tick = func() {
		ticks = append(ticks, l.Now())
		if len(ticks) < 5 {
			l.At(10*time.Millisecond, tick)
		}
	}
	l.At(0, tick)
	l.Run()
	if len(ticks) != 5 || ticks[4] != 40*time.Millisecond {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestEventLoopStopResume(t *testing.T) {
	l := NewEventLoop()
	var fired int
	l.At(time.Millisecond, func() { fired++; l.Stop() })
	l.At(2*time.Millisecond, func() { fired++ })
	l.Run()
	if fired != 1 || l.Pending() != 1 {
		t.Fatalf("after Stop: fired=%d pending=%d", fired, l.Pending())
	}
	l.Run()
	if fired != 2 || l.Pending() != 0 {
		t.Fatalf("after resume: fired=%d pending=%d", fired, l.Pending())
	}
}

func TestEventLoopNegativeDelayClamps(t *testing.T) {
	l := NewEventLoop()
	var at time.Duration
	l.At(time.Millisecond, func() {
		l.At(-time.Second, func() { at = l.Now() })
	})
	l.Run()
	if at != time.Millisecond {
		t.Fatalf("clamped event fired at %v, want 1ms", at)
	}
}

// A modeled process is a callback chain: each hold schedules the next
// stage, and stages land at the cumulative instants.
func TestSingleProcessHolds(t *testing.T) {
	l := NewEventLoop()
	var at1, at2 time.Duration
	l.At(5*time.Millisecond, func() {
		at1 = l.Now()
		l.At(3*time.Millisecond, func() { at2 = l.Now() })
	})
	end := l.Run()
	if at1 != 5*time.Millisecond || at2 != 8*time.Millisecond {
		t.Fatalf("holds landed at %v, %v", at1, at2)
	}
	if end != 8*time.Millisecond {
		t.Fatalf("final time %v", end)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	l := NewEventLoop()
	var order []string
	l.At(0, func() {
		order = append(order, "a") // t=0
		l.At(10*time.Millisecond, func() { order = append(order, "a") })
	})
	l.At(0, func() {
		order = append(order, "b") // t=0, after a: schedule order breaks the tie
		l.At(5*time.Millisecond, func() { order = append(order, "b") })
	})
	l.Run()
	want := []string{"a", "b", "b", "a"}
	if len(order) != len(want) {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestStartOffsets(t *testing.T) {
	l := NewEventLoop()
	var started time.Duration
	l.At(7*time.Millisecond, func() { started = l.Now() })
	l.Run()
	if started != 7*time.Millisecond {
		t.Fatalf("late callback fired at %v", started)
	}
	// Negative offsets clamp to now.
	l2 := NewEventLoop()
	l2.At(-time.Second, func() { started = l2.Now() })
	l2.Run()
	if started != 0 {
		t.Fatalf("negative offset fired at %v", started)
	}
}

// A chain started from inside a running callback begins at its offset
// from that instant.
func TestSpawnDuringRun(t *testing.T) {
	l := NewEventLoop()
	var childAt time.Duration
	l.At(5*time.Millisecond, func() {
		l.At(3*time.Millisecond, func() { childAt = l.Now() })
		l.At(time.Millisecond, func() {})
	})
	l.Run()
	if childAt != 8*time.Millisecond {
		t.Fatalf("child started at %v, want 8ms", childAt)
	}
}

// Identically seeded schedules replay to identical timelines, ties and
// all.
func TestDeterminism(t *testing.T) {
	type firing struct {
		chain int
		at    time.Duration
	}
	run := func() []firing {
		rng := rand.New(rand.NewSource(42))
		l := NewEventLoop()
		var fired []firing
		var step func(chain, left int)
		step = func(chain, left int) {
			fired = append(fired, firing{chain, l.Now()})
			if left > 0 {
				// Millisecond-granular delays force plenty of ties.
				l.At(time.Duration(rng.Intn(4))*time.Millisecond, func() { step(chain, left-1) })
			}
		}
		for i := 0; i < 10; i++ {
			i := i
			l.At(time.Duration(rng.Intn(4))*time.Millisecond, func() { step(i, 5) })
		}
		l.Run()
		return fired
	}
	a, b := run(), run()
	if len(a) != 60 || len(a) != len(b) {
		t.Fatalf("fired %d and %d callbacks, want 60", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at callback %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
