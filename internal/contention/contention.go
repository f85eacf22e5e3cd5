// Package contention studies several applications sharing one rCUDA server
// at event granularity — the paper's remaining future-work item ("potential
// network contention caused by multiple applications running in a cluster
// featuring several GPGPU servers will also be covered in future work").
//
// Each client replays its case study's exact message schedule as a flat
// list of steps on one des.EventLoop. Two resources serialize the shared
// hardware: the server's network link (one frame on the wire at a time,
// FIFO) and the GPU (PCIe transfers and kernels execute exclusively, FIFO
// across sessions, as the daemon's time multiplexing implies). Client-local
// work — data generation and marshaling — proceeds in parallel on each
// client's own node.
//
// With one client the event-level execution collapses to the paper's
// synchronous model, and a test asserts it matches workload.Run exactly.
package contention

import (
	"fmt"
	"sort"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/des"
	"rcuda/internal/netsim"
	"rcuda/internal/workload"
)

// Params configures one contention experiment.
type Params struct {
	CS   calib.CaseStudy
	Size int
	// Clients is the number of concurrent applications sharing the
	// server.
	Clients int
	// Link is the interconnect into the GPU node, shared by all clients.
	Link *netsim.Link
	// Stagger is an optional arrival offset between consecutive clients.
	Stagger time.Duration
}

// Result summarizes one experiment.
type Result struct {
	// PerClient holds each client's completion instant minus its arrival.
	PerClient []time.Duration
	// Makespan is the instant the last client finishes.
	Makespan time.Duration
	// LinkUtilization and GPUUtilization are busy fractions of the run.
	LinkUtilization float64
	GPUUtilization  float64
}

// Run executes the experiment.
func Run(p Params) (Result, error) {
	if p.Clients < 1 {
		return Result{}, fmt.Errorf("contention: need at least one client, got %d", p.Clients)
	}
	if p.Link == nil {
		return Result{}, fmt.Errorf("contention: nil link")
	}
	if p.Size <= 0 {
		return Result{}, fmt.Errorf("contention: non-positive size %d", p.Size)
	}

	loop := des.NewEventLoop()
	link := &resource{loop: loop}
	gpu := &resource{loop: loop}

	pcie := calib.PCIeTime(p.CS, p.Size)
	kernel := calib.KernelTime(p.CS, p.Size)
	// Data generation and marshaling are node-local, fully parallel across
	// clients.
	steps := []step{{d: calib.DataGenTime(p.CS, p.Size) + calib.MarshalTime(p.CS, p.Size)}}
	for _, msg := range workload.Schedule(p.CS, p.Size) {
		// Request frame occupies the shared wire.
		steps = append(steps, step{res: link, d: p.Link.WireTime(msg.Send)})
		// Server-side device work, exclusive per GPU.
		switch msg.Kind {
		case workload.MsgMemcpyIn, workload.MsgMemcpyOut:
			steps = append(steps, step{res: gpu, d: pcie})
		case workload.MsgLaunch:
			steps = append(steps, step{res: gpu, d: kernel})
		}
		// Response frame back over the shared wire.
		if msg.Recv > 0 {
			steps = append(steps, step{res: link, d: p.Link.WireTime(msg.Recv)})
		}
	}
	steps = append(steps, step{d: calib.Mgmt})

	finished := replay(loop, steps, p.Clients, p.Stagger)
	return Result{
		PerClient:       finished,
		Makespan:        loop.Now(),
		LinkUtilization: link.utilization(),
		GPUUtilization:  gpu.utilization(),
	}, nil
}

// step is one stage of a client's replay: hold for d, occupying res for
// the whole hold unless res is nil (node-local work).
type step struct {
	res *resource
	d   time.Duration
}

// replay starts clients copies of steps, client c arriving at c*stagger,
// runs the loop dry, and returns each client's turnaround. A client still
// unfinished then is blocked on a resource nobody will release — a
// modeling bug, so replay panics.
func replay(loop *des.EventLoop, steps []step, clients int, stagger time.Duration) []time.Duration {
	finished := make([]time.Duration, clients)
	done := 0
	for c := 0; c < clients; c++ {
		c := c
		loop.At(time.Duration(c)*stagger, func() {
			start := loop.Now()
			var next func(i int)
			next = func(i int) {
				if i == len(steps) {
					finished[c] = loop.Now() - start
					done++
					return
				}
				s := steps[i]
				if s.res == nil {
					loop.At(s.d, func() { next(i + 1) })
					return
				}
				s.res.acquire(func() {
					loop.At(s.d, func() {
						s.res.release()
						next(i + 1)
					})
				})
			}
			next(0)
		})
	}
	loop.Run()
	if done < clients {
		panic(fmt.Sprintf("contention: deadlock: %d clients blocked with no pending events", clients-done))
	}
	return finished
}

// resource is a capacity-one server with a FIFO wait queue: the network
// link or the GPU. A release hands the unit straight to the longest
// waiter, so the resource stays busy across the hand-off.
type resource struct {
	loop    *des.EventLoop
	held    bool
	waiters []func()
	busy    time.Duration // completed busy spans
	since   time.Duration // start of the current busy span
}

// acquire runs then once the unit is the caller's: synchronously if the
// resource is free, else after every earlier waiter has released it.
func (r *resource) acquire(then func()) {
	if r.held {
		r.waiters = append(r.waiters, then)
		return
	}
	r.held = true
	r.since = r.loop.Now()
	then()
}

// release passes the unit to the head waiter at the current instant, or
// frees it and closes the busy span.
func (r *resource) release() {
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.loop.At(0, next)
		return
	}
	r.held = false
	r.busy += r.loop.Now() - r.since
}

// utilization is the busy fraction of the run so far, counted once every
// holder has released.
func (r *resource) utilization() float64 {
	if r.loop.Now() == 0 {
		return 0
	}
	return float64(r.busy) / float64(r.loop.Now())
}

// Sweep runs the experiment for every client count in [1, maxClients] and
// returns the results in order.
func Sweep(base Params, maxClients int) ([]Result, error) {
	if maxClients < 1 {
		return nil, fmt.Errorf("contention: maxClients %d", maxClients)
	}
	out := make([]Result, 0, maxClients)
	for c := 1; c <= maxClients; c++ {
		p := base
		p.Clients = c
		r, err := Run(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Slowdown reports each client count's mean per-client slowdown relative
// to the single-client execution — the contention penalty curve.
func Slowdown(results []Result) []float64 {
	if len(results) == 0 {
		return nil
	}
	base := results[0].PerClient[0].Seconds()
	out := make([]float64, len(results))
	for i, r := range results {
		var sum float64
		for _, d := range r.PerClient {
			sum += d.Seconds()
		}
		mean := sum / float64(len(r.PerClient))
		out[i] = mean / base
	}
	return out
}

// P95Turnaround returns the 95th-percentile per-client turnaround of a
// result (by nearest-rank on the sorted turnarounds).
func P95Turnaround(r Result) time.Duration {
	if len(r.PerClient) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.PerClient...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)*95)/100]
}
