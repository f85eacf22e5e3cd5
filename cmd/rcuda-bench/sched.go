package main

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"rcuda/internal/sched"
)

// schedSuite quantifies the scheduler's headline result: the mixed-tenant
// starvation scenario — one greedy bulk tenant with a deep async pipeline
// sharing a device with latency-sensitive realtime tenants — under FIFO
// (the paper's arrival-order baseline) and under WFQ with priority
// classes. The scheduler must cut the realtime class's p99 queue wait by
// at least 5x while serving the same aggregate throughput within 10%:
// fairness is not allowed to cost bandwidth. Every scenario runs on
// sched.Simulate's virtual clock and must reproduce byte for byte across
// two runs.
var schedSuite = suite{
	name:   "sched",
	path:   "BENCH_sched.json",
	run:    runSched,
	decode: decodeAs[schedFile],
}

// scenario is one named, fully-pinned tenant mix. Both policies run the
// same mix from the same seed, so the only variable is the grant order.
type schedScenario struct {
	name  string
	seed  int64
	dur   time.Duration
	mix   func() []sched.TenantSpec
	gates gates
}

// gates are the per-scenario acceptance thresholds; zero disables a gate.
type gates struct {
	// minP99Improvement is the minimum fifoP99/wfqP99 ratio for the
	// realtime class.
	minP99Improvement float64
	// maxThroughputDelta bounds |served_wfq - served_fifo| / served_fifo.
	maxThroughputDelta float64
	// servedRatio, when non-zero, asserts tenant 0's served count is this
	// multiple of tenant 1's under WFQ, within servedRatioTol.
	servedRatio    float64
	servedRatioTol float64
}

// bulkTenant is the greedy pipeline: a batch-class tenant whose backlog
// keeps the device saturated — exactly what FIFO makes everyone wait
// behind.
func bulkTenant(backlog int, opCost time.Duration) sched.TenantSpec {
	return sched.TenantSpec{
		Name: "bulk", Class: sched.Batch, Weight: 1,
		OpCost: opCost, Backlog: backlog,
	}
}

func schedScenarios() []schedScenario {
	return []schedScenario{
		// The headline: one bulk tenant with a 64-deep pipeline of 500µs
		// ops, eight realtime tenants each firing a sporadic 50µs op every
		// ~2ms. Under FIFO every realtime op queues behind the whole
		// pipeline; under WFQ the realtime class's 100x weight lifts it past
		// the backlog at the next op boundary.
		{
			name: "starvation-1bulk-8rt", seed: 7, dur: 5 * time.Second,
			mix: func() []sched.TenantSpec {
				ts := []sched.TenantSpec{bulkTenant(64, 500*time.Microsecond)}
				for i := 0; i < 8; i++ {
					ts = append(ts, sched.TenantSpec{
						Name: fmt.Sprintf("rt-%d", i), Class: sched.Realtime, Weight: 1,
						OpCost: 50 * time.Microsecond, MeanGap: 2 * time.Millisecond,
					})
				}
				return ts
			},
			gates: gates{minP99Improvement: 5, maxThroughputDelta: 0.10},
		},
		// Same shape at 32 tenants: the improvement must hold when the
		// latency-sensitive population itself carries real load.
		{
			name: "starvation-1bulk-32rt", seed: 11, dur: 5 * time.Second,
			mix: func() []sched.TenantSpec {
				ts := []sched.TenantSpec{bulkTenant(64, 500*time.Microsecond)}
				for i := 0; i < 32; i++ {
					ts = append(ts, sched.TenantSpec{
						Name: fmt.Sprintf("rt-%d", i), Class: sched.Realtime, Weight: 1,
						OpCost: 50 * time.Microsecond, MeanGap: 8 * time.Millisecond,
					})
				}
				return ts
			},
			gates: gates{minP99Improvement: 5, maxThroughputDelta: 0.10},
		},
		// Weight proportionality inside one class: two saturating batch
		// tenants at 2:1 session weights must split the device 2:1 under
		// WFQ (FIFO splits it 1:1 — recorded for contrast).
		{
			name: "weighted-share-2to1", seed: 3, dur: 2 * time.Second,
			mix: func() []sched.TenantSpec {
				heavy := bulkTenant(16, 200*time.Microsecond)
				heavy.Name, heavy.Weight = "heavy", 2
				light := bulkTenant(16, 200*time.Microsecond)
				light.Name, light.Weight = "light", 1
				return []sched.TenantSpec{heavy, light}
			},
			gates: gates{maxThroughputDelta: 0.10, servedRatio: 2, servedRatioTol: 0.05},
		},
	}
}

// schedClassRow is one class's outcome under one policy.
type schedClassRow struct {
	Class     string `json:"class"`
	Served    uint64 `json:"served"`
	WaitP50US int64  `json:"wait_p50_us"`
	WaitP99US int64  `json:"wait_p99_us"`
	WaitMaxUS int64  `json:"wait_max_us"`
}

// policyRow is one policy's outcome on a scenario.
type policyRow struct {
	TotalServed uint64          `json:"total_served"`
	BusyFrac    float64         `json:"busy_frac"`
	Preemptions uint64          `json:"preemptions"`
	Classes     []schedClassRow `json:"classes"`
}

// schedResult is one scenario's row in the bench file.
type schedResult struct {
	Name       string    `json:"name"`
	Seed       int64     `json:"seed"`
	DurationMS int64     `json:"duration_ms"`
	Tenants    int       `json:"tenants"`
	FIFO       policyRow `json:"fifo"`
	WFQ        policyRow `json:"wfq"`
	// RTP99ImprovementX is fifo/wfq for the realtime class's p99 queue
	// wait — the headline number (0 when the mix has no realtime class).
	RTP99ImprovementX float64 `json:"rt_p99_improvement_x,omitempty"`
	// ThroughputDeltaFrac is |wfq-fifo|/fifo over total served ops.
	ThroughputDeltaFrac float64 `json:"throughput_delta_frac"`
}

type schedFile struct {
	Harness   string        `json:"harness"`
	Scenarios []schedResult `json:"scenarios"`
}

func (f schedFile) rows() []row {
	rows := []row{newRow("harness", f.Harness)}
	for _, sr := range f.Scenarios {
		rows = append(rows, newRow(sr.Name, sr))
	}
	return rows
}

func toPolicyRow(r *sched.SimResult) policyRow {
	row := policyRow{
		TotalServed: r.TotalServed,
		BusyFrac:    round4(r.BusyFrac),
		Preemptions: r.Preemptions,
	}
	for _, c := range r.Classes {
		row.Classes = append(row.Classes, schedClassRow{
			Class:     c.Class.String(),
			Served:    c.Served,
			WaitP50US: c.WaitP50.Microseconds(),
			WaitP99US: c.WaitP99.Microseconds(),
			WaitMaxUS: c.WaitMax.Microseconds(),
		})
	}
	return row
}

// classP99 extracts one class's p99 wait from a run, 0 if absent.
func classP99(r *sched.SimResult, class sched.Class) time.Duration {
	for _, c := range r.Classes {
		if c.Class == class {
			return c.WaitP99
		}
	}
	return 0
}

// simulateTwice runs the config twice and insists the runs agree byte for
// byte — the determinism contract the freshness check depends on.
func simulateTwice(cfg sched.SimConfig) (*sched.SimResult, error) {
	a := sched.Simulate(cfg)
	b := sched.Simulate(cfg)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		return nil, fmt.Errorf("two identically-seeded %s runs diverged:\n%s\n%s", cfg.Policy, ja, jb)
	}
	return a, nil
}

func runSchedScenario(sc schedScenario) (schedResult, error) {
	base := sched.SimConfig{Seed: sc.seed, Duration: sc.dur, Tenants: sc.mix()}
	fifoCfg, wfqCfg := base, base
	fifoCfg.Policy, wfqCfg.Policy = sched.FIFO, sched.WFQ
	fifoCfg.Tenants, wfqCfg.Tenants = sc.mix(), sc.mix()
	fifo, err := simulateTwice(fifoCfg)
	if err != nil {
		return schedResult{}, err
	}
	wfq, err := simulateTwice(wfqCfg)
	if err != nil {
		return schedResult{}, err
	}

	sr := schedResult{
		Name:       sc.name,
		Seed:       sc.seed,
		DurationMS: sc.dur.Milliseconds(),
		Tenants:    len(base.Tenants),
		FIFO:       toPolicyRow(fifo),
		WFQ:        toPolicyRow(wfq),
	}
	if fifo.TotalServed > 0 {
		delta := float64(int64(wfq.TotalServed) - int64(fifo.TotalServed))
		if delta < 0 {
			delta = -delta
		}
		sr.ThroughputDeltaFrac = round4(delta / float64(fifo.TotalServed))
	}
	if wfqP99 := classP99(wfq, sched.Realtime); wfqP99 > 0 {
		sr.RTP99ImprovementX = round2(float64(classP99(fifo, sched.Realtime)) / float64(wfqP99))
	}
	return sr, sc.gates.check(sr, wfq)
}

// check enforces the scenario's acceptance gates: the bench refuses a
// result that breaks the scheduler's fairness claims, so a regression
// fails CI loudly rather than silently rewriting the artifact.
func (g gates) check(sr schedResult, wfq *sched.SimResult) error {
	if g.minP99Improvement > 0 && sr.RTP99ImprovementX < g.minP99Improvement {
		return fmt.Errorf("realtime p99 improved only %.2fx, want >= %.0fx",
			sr.RTP99ImprovementX, g.minP99Improvement)
	}
	if g.maxThroughputDelta > 0 && sr.ThroughputDeltaFrac > g.maxThroughputDelta {
		return fmt.Errorf("throughput delta %.4f exceeds %.2f (fifo %d, wfq %d served)",
			sr.ThroughputDeltaFrac, g.maxThroughputDelta, sr.FIFO.TotalServed, sr.WFQ.TotalServed)
	}
	if g.servedRatio > 0 {
		a, b := wfq.Tenants[0].Served, wfq.Tenants[1].Served
		ratio := float64(a) / float64(b)
		if ratio < g.servedRatio*(1-g.servedRatioTol) || ratio > g.servedRatio*(1+g.servedRatioTol) {
			return fmt.Errorf("served ratio %.3f (%d:%d) outside %.1f±%.0f%%",
				ratio, a, b, g.servedRatio, g.servedRatioTol*100)
		}
	}
	return nil
}

func runSched(out io.Writer, _ bool) (benchFile, []string, error) {
	f := schedFile{Harness: "sched-bench-v1"}
	w := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	defer w.Flush()
	fmt.Fprintln(w, "scenario\ttenants\trt p99 fifo\trt p99 wfq\timprovement\tthpt delta\tpreemptions")
	for _, sc := range schedScenarios() {
		sr, err := runSchedScenario(sc)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %v", sc.name, err)
		}
		printSchedRow(w, sr)
		f.Scenarios = append(f.Scenarios, sr)
	}
	return f, nil, nil
}

func printSchedRow(w io.Writer, sr schedResult) {
	rtP99 := func(p policyRow) (us int64) {
		for _, c := range p.Classes {
			if c.Class == sched.Realtime.String() {
				us = c.WaitP99US
			}
		}
		return us
	}
	fmt.Fprintf(w, "%s\t%d\t%dµs\t%dµs\t%.1fx\t%.2f%%\t%d\n",
		sr.Name, sr.Tenants, rtP99(sr.FIFO), rtP99(sr.WFQ), sr.RTP99ImprovementX,
		sr.ThroughputDeltaFrac*100, sr.WFQ.Preemptions)
}
