package sched

import (
	"fmt"
	"math/rand"
	"time"

	"rcuda/internal/des"
	"rcuda/internal/stats"
)

// This file is the scheduler's deterministic proving ground: a
// goroutine-free event-driven simulation of one device shared by a tenant
// mix, driving the exact same decision core the live Queue uses. Every
// random draw comes from per-tenant streams derived from one master seed,
// so a scenario is a pure function of its SimConfig — the property
// BENCH_sched.json's two-run determinism check relies on.

// TenantSpec describes one simulated session.
type TenantSpec struct {
	// Name labels the tenant in results.
	Name string
	// Class and Weight are the tenant's scheduling parameters.
	Class  Class
	Weight uint32
	// OpCost is the service time of each of the tenant's ops.
	OpCost time.Duration
	// Backlog > 0 makes the tenant closed-loop with that many ops always
	// queued — the greedy bulk tenant with a deep async pipeline.
	Backlog int
	// MeanGap > 0 makes the tenant open-loop: single ops arrive with
	// exponentially distributed gaps of this mean — the latency-sensitive
	// tenant issuing sporadic small launches.
	MeanGap time.Duration
}

// SimConfig parameterizes one Simulate run.
type SimConfig struct {
	// Seed derives every tenant's arrival stream.
	Seed int64
	// Policy and ClassWeights configure the scheduler under test.
	Policy       Policy
	ClassWeights [NumClasses]uint32
	// Duration is the arrival window: ops arriving inside it are counted,
	// the queue then drains.
	Duration time.Duration
	// Tenants is the mix sharing the device.
	Tenants []TenantSpec
}

// TenantResult is one tenant's outcome.
type TenantResult struct {
	Name   string
	Class  Class
	Served uint64
	// Wait statistics for the tenant's ops: arrival to grant.
	WaitP50  time.Duration
	WaitP99  time.Duration
	WaitMax  time.Duration
	WaitMean time.Duration
}

// ClassResult merges the tenants of one class.
type ClassResult struct {
	Class    Class
	Served   uint64
	WaitP50  time.Duration
	WaitP99  time.Duration
	WaitMax  time.Duration
	WaitMean time.Duration
}

// SimResult is a Simulate run's outcome.
type SimResult struct {
	Policy      Policy
	Tenants     []TenantResult
	Classes     []ClassResult
	TotalServed uint64
	// BusyFrac is the device's utilization over the arrival window —
	// equal-aggregate-throughput comparisons key off it and TotalServed.
	BusyFrac float64
	// Preemptions counts op-boundary yields across all classes.
	Preemptions uint64
}

// simTenant is one tenant's live state. A closed-loop tenant keeps its
// whole Backlog enqueued in the core — the deep async pipeline whose queue
// depth is exactly what FIFO makes everyone else wait behind.
type simTenant struct {
	flow
	spec   TenantSpec
	rng    *rand.Rand
	waits  *stats.DurationHistogram
	served uint64
}

// Simulate runs the tenant mix against the scheduler and reports per-tenant
// and per-class waits. It is deterministic: same config, same result.
func Simulate(cfg SimConfig) *SimResult {
	if cfg.Duration <= 0 || len(cfg.Tenants) == 0 {
		return &SimResult{Policy: cfg.Policy}
	}
	c := newCore(Config{Policy: cfg.Policy, ClassWeights: cfg.ClassWeights})
	loop := des.NewEventLoop()
	var busy time.Duration
	var running *op
	var dispatch func()

	// arrive schedules t's next open-loop op arrival. Arrivals past the
	// window stop the tenant's stream; the queue then drains.
	var arrive func(t *simTenant)
	arrive = func(t *simTenant) {
		loop.At(t.nextGap(), func() {
			now := loop.Now()
			if now > cfg.Duration {
				return
			}
			c.enqueue(&t.flow, t.spec.OpCost, now)
			arrive(t)
			dispatch()
		})
	}
	// dispatch grants the next op the device if it is idle, and schedules
	// the op's completion.
	dispatch = func() {
		if running != nil {
			return
		}
		o := c.pick()
		if o == nil {
			return
		}
		now := loop.Now()
		t := o.f.owner.(*simTenant)
		t.waits.Record(now - o.enqueuedAt)
		t.served++
		running = o
		if now < cfg.Duration {
			busy += min(t.spec.OpCost, cfg.Duration-now)
		}
		loop.At(t.spec.OpCost, func() {
			c.charge(o, t.spec.OpCost)
			running = nil
			if t.spec.Backlog > 0 && loop.Now() < cfg.Duration {
				// Closed loop: the pipeline refills instantly at the
				// boundary.
				c.enqueue(&t.flow, t.spec.OpCost, loop.Now())
			}
			dispatch()
		})
	}

	tenants := make([]*simTenant, len(cfg.Tenants))
	for i, spec := range cfg.Tenants {
		t := &simTenant{
			spec:  spec,
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i) + 1)),
			waits: stats.NewDurationHistogram(),
		}
		t.flow = flow{class: spec.Class % NumClasses, weight: spec.Weight}
		t.owner = t
		tenants[i] = t
		// The closed-loop pipeline is full from t=0: every backlog op sits
		// in the core at once, so arrival-order policies see (and charge
		// latecomers for) the whole pipeline depth.
		for k := 0; k < spec.Backlog; k++ {
			c.enqueue(&t.flow, spec.OpCost, 0)
		}
		if spec.MeanGap > 0 {
			arrive(t)
		}
	}

	// Kick the device: a pure closed-loop mix has no arrival events, only
	// the completion chain this first grant starts.
	dispatch()
	loop.Run()

	res := &SimResult{Policy: cfg.Policy}
	classW := [NumClasses]*stats.DurationHistogram{}
	classServed := [NumClasses]uint64{}
	for i := range classW {
		classW[i] = stats.NewDurationHistogram()
	}
	for _, t := range tenants {
		name := t.spec.Name
		if name == "" {
			name = fmt.Sprintf("tenant-%s", t.class)
		}
		res.Tenants = append(res.Tenants, TenantResult{
			Name:     name,
			Class:    t.class,
			Served:   t.served,
			WaitP50:  t.waits.Percentile(50),
			WaitP99:  t.waits.Percentile(99),
			WaitMax:  t.waits.Max(),
			WaitMean: t.waits.Mean(),
		})
		res.TotalServed += t.served
		classW[t.class].Merge(t.waits)
		classServed[t.class] += t.served
	}
	for i := range classW {
		if classServed[i] == 0 {
			continue
		}
		res.Classes = append(res.Classes, ClassResult{
			Class:    Class(i),
			Served:   classServed[i],
			WaitP50:  classW[i].Percentile(50),
			WaitP99:  classW[i].Percentile(99),
			WaitMax:  classW[i].Max(),
			WaitMean: classW[i].Mean(),
		})
	}
	for i := range c.preempted {
		res.Preemptions += c.preempted[i]
	}
	res.BusyFrac = float64(busy) / float64(cfg.Duration)
	return res
}

// nextGap draws the tenant's next exponential interarrival gap.
func (t *simTenant) nextGap() time.Duration {
	g := time.Duration(t.rng.ExpFloat64() * float64(t.spec.MeanGap))
	if g < time.Nanosecond {
		g = time.Nanosecond
	}
	return g
}
