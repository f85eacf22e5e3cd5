// Package des is a deterministic discrete-event engine: timed callbacks on
// a virtual clock.
//
// The single global virtual clock of package vclock is enough for the
// paper's strictly synchronous single-client executions, but studying
// contention — several applications sharing one GPU server and one network
// link, the paper's declared future work — and simulating 10^5–10^6 broker
// sessions need genuinely concurrent virtual timelines. An EventLoop
// provides them on one stack: a modeled thread of control is a chain of
// callbacks, each scheduling the next, and the loop holds only a binary
// heap of pending callbacks, so a million-session run is a few million
// heap operations and no goroutines.
//
// Events fire in (time, schedule order), so two runs that schedule the
// same callbacks produce identical timelines.
package des

import (
	"container/heap"
	"fmt"
	"time"
)

// EventLoop owns the pending callbacks and the virtual clock.
type EventLoop struct {
	now     time.Duration
	events  timerHeap
	seq     int64
	running bool
	stopped bool
}

// NewEventLoop returns an empty loop at virtual time zero.
func NewEventLoop() *EventLoop { return &EventLoop{} }

// Now returns the current virtual time.
func (l *EventLoop) Now() time.Duration { return l.now }

// Pending returns the number of scheduled callbacks not yet fired.
func (l *EventLoop) Pending() int { return len(l.events) }

// At schedules fn to run at now+delay. Negative delays are clamped to now.
// Callbacks may schedule further callbacks; ties fire in schedule order.
func (l *EventLoop) At(delay time.Duration, fn func()) {
	if fn == nil {
		panic("des: EventLoop.At with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	l.seq++
	heap.Push(&l.events, timer{at: l.now + delay, seq: l.seq, fn: fn})
}

// Stop makes Run return before firing the next callback. Pending events
// stay queued; a subsequent Run resumes from them.
func (l *EventLoop) Stop() { l.stopped = true }

// Run fires callbacks in timestamp order until none remain (or Stop is
// called from within one), returning the final virtual time.
func (l *EventLoop) Run() time.Duration {
	if l.running {
		panic("des: EventLoop.Run reentered")
	}
	l.running = true
	l.stopped = false
	defer func() { l.running = false }()
	for len(l.events) > 0 && !l.stopped {
		e := heap.Pop(&l.events).(timer)
		if e.at < l.now {
			panic(fmt.Sprintf("des: event loop time went backwards: %v -> %v", l.now, e.at))
		}
		l.now = e.at
		e.fn()
	}
	return l.now
}

// timer is one pending callback.
type timer struct {
	at  time.Duration
	seq int64
	fn  func()
}

type timerHeap []timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
