package main

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"rcuda/internal/broker"
	"rcuda/internal/faults"
	"rcuda/internal/loadgen"
	"rcuda/internal/protocol"
)

// scaleSuite drives the broker's placement, spill, and failover paths with
// 10^4–10^5 simulated sessions on a virtual clock (internal/loadgen),
// closed-loop with the elastic autoscaler. A check re-runs only the
// scenarios of at most scaleCheckCap sessions; the larger rows must merely
// be present (the full run regenerates them).
var scaleSuite = suite{
	name:   "scale",
	path:   "BENCH_loadscale.json",
	run:    runScale,
	decode: decodeAs[scaleFile],
}

// scaleCheckCap is the largest scenario a check re-runs.
const scaleCheckCap = 10_000

// scale1mSuite is the nightly million-session run: print only, under the
// same gate as the committed scenarios.
var scale1mSuite = suite{name: "scale-1m", run: runScale1m}

// scaleScenario is one named, fully-pinned load-generation run. build returns a
// fresh Config each call because fault plans are stateful.
type scaleScenario struct {
	name  string
	build func() loadgen.Config
}

// mix is the standard offered class mix: long durable training sessions
// and short best-effort inference sessions, 1:3.
func mix() []loadgen.Class {
	return []loadgen.Class{
		{Name: "train", Weight: 1, HoldMean: 40 * time.Millisecond, Durable: true},
		{Name: "infer", Weight: 3, HoldMean: 8 * time.Millisecond, Durable: false},
	}
}

func scaleScenarios() []scaleScenario {
	return []scaleScenario{
		{name: "smoke-poisson", build: func() loadgen.Config {
			return loadgen.Config{
				Seed: 1, Sessions: 10_000, Arrival: loadgen.Poisson, Rate: 20_000,
				Classes: mix(), InitialDaemons: 4, DaemonCapacity: 64,
				Autoscale: &broker.AutoscalerConfig{
					Min: 4, Max: 32, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
				},
			}
		}},
		{name: "smoke-bursty-chaos", build: func() loadgen.Config {
			return loadgen.Config{
				Seed: 2, Sessions: 10_000, Arrival: loadgen.BurstyOnOff, Rate: 12_000,
				BurstFactor: 5, Classes: mix(), InitialDaemons: 4, DaemonCapacity: 64,
				Autoscale: &broker.AutoscalerConfig{
					Min: 4, Max: 32, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
				},
				FaultPlan: faults.Seeded(3, faults.Config{
					ResetRate: 0.004, StallRate: 0.01, LatencyRate: 0.05,
				}),
			}
		}},
		// Long-hold, all-durable load with a strong burst: the autoscaler
		// grows the fleet into the bursts, and on the off-phases scale-down
		// faces daemons still holding live sessions — which it drains by
		// live-migrating the residents instead of vetoing the retirement.
		{name: "scale-down-migrate", build: func() loadgen.Config {
			return loadgen.Config{
				Seed: 5, Sessions: 10_000, Arrival: loadgen.BurstyOnOff, Rate: 6_000,
				BurstOnMean: 400 * time.Millisecond, BurstOffMean: 400 * time.Millisecond,
				BurstFactor:    6,
				Classes:        []loadgen.Class{{Name: "train", Weight: 1, HoldMean: 120 * time.Millisecond, Durable: true}},
				InitialDaemons: 2, DaemonCapacity: 32,
				Autoscale: &broker.AutoscalerConfig{
					Min: 2, Max: 48, DaemonCapacity: 32, Cooldown: 100 * time.Millisecond,
					DownThreshold: 0.6,
				},
			}
		}},
		// Mixed scheduling classes through class-aware placement at 10^5
		// scale: sporadic realtime inference, the batch bulk, best-effort
		// scavengers. The probe loop feeds per-class daemon gauges to the
		// placer, so realtime sessions are steered toward daemons with
		// realtime headroom — the fleet-level half of the class scheduler
		// (the per-device half is the sched suite).
		{name: "scale-100k-classes", build: func() loadgen.Config {
			return loadgen.Config{
				Seed: 6, Sessions: 100_000, Arrival: loadgen.Poisson, Rate: 40_000,
				Classes: []loadgen.Class{
					{Name: "rt", Weight: 1, HoldMean: 5 * time.Millisecond, Durable: true, SchedClass: protocol.SchedClassRealtime},
					{Name: "batch", Weight: 2, HoldMean: 40 * time.Millisecond, Durable: true, SchedClass: protocol.SchedClassBatch},
					{Name: "scavenge", Weight: 1, HoldMean: 20 * time.Millisecond, Durable: false, SchedClass: protocol.SchedClassBestEffort},
				},
				Policy:         broker.ClassAware,
				InitialDaemons: 4, DaemonCapacity: 64,
				Autoscale: &broker.AutoscalerConfig{
					Min: 4, Max: 64, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
				},
			}
		}},
		{name: "scale-100k", build: func() loadgen.Config {
			return loadgen.Config{
				Seed: 3, Sessions: 100_000, Arrival: loadgen.Poisson, Rate: 60_000,
				Classes: mix(), InitialDaemons: 4, DaemonCapacity: 64,
				Autoscale: &broker.AutoscalerConfig{
					Min: 4, Max: 64, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
				},
				FaultPlan: faults.Seeded(4, faults.Config{
					ResetRate: 0.002, StallRate: 0.01,
				}),
			}
		}},
	}
}

// scaleResult is one scenario's row in the bench file. Everything in it
// derives from seeded virtual-clock runs, so re-running a scenario must
// reproduce its row byte for byte.
type scaleResult struct {
	Name           string  `json:"name"`
	Sessions       int     `json:"sessions"`
	Arrival        string  `json:"arrival"`
	ElapsedMS      int64   `json:"elapsed_ms"`
	PlacedPerSec   float64 `json:"placed_per_sec"`
	QueueWaitP50US int64   `json:"queue_wait_p50_us"`
	QueueWaitP99US int64   `json:"queue_wait_p99_us"`
	Completed      int64   `json:"completed"`
	LostDurable    int64   `json:"lost_durable"`
	LostNonDurable int64   `json:"lost_non_durable"`
	Spills         int64   `json:"spills"`
	Failovers      int64   `json:"failovers"`
	Markdowns      int64   `json:"markdowns"`
	Markups        int64   `json:"markups"`
	Retirements    int64   `json:"retirements"`
	Migrations     int64   `json:"migrations"`
	RetireVetoes   int64   `json:"retire_vetoes"`
	ScaleUps       int64   `json:"scale_ups"`
	ScaleDowns     int64   `json:"scale_downs"`
	Faults         int64   `json:"faults"`
	PeakDaemons    int     `json:"peak_daemons"`
	FinalDaemons   int     `json:"final_daemons"`
	// DaemonsOverTime is the autoscaler trajectory, one fleet size per
	// trajectory sample (1s of virtual time apart).
	DaemonsOverTime []int `json:"daemons_over_time"`
	// Classes breaks queue waits down per offered class; present only for
	// scenarios that declare scheduling classes, so legacy rows are
	// byte-stable.
	Classes []scaleClassResult `json:"classes,omitempty"`
}

// scaleClassResult is one class's row in a scenario result.
type scaleClassResult struct {
	Name       string `json:"name"`
	SchedClass string `json:"sched_class"`
	Sessions   int    `json:"sessions"`
	Placements int64  `json:"placements"`
	WaitP50US  int64  `json:"wait_p50_us"`
	WaitP99US  int64  `json:"wait_p99_us"`
}

// schedClassName names a protocol scheduling-class wire code.
func schedClassName(code uint32) string {
	switch code {
	case protocol.SchedClassRealtime:
		return "realtime"
	case protocol.SchedClassBatch:
		return "batch"
	case protocol.SchedClassBestEffort:
		return "besteffort"
	default:
		return "unspecified"
	}
}

type scaleFile struct {
	Harness   string        `json:"harness"`
	Scenarios []scaleResult `json:"scenarios"`
}

func (f scaleFile) rows() []row {
	rows := []row{newRow("harness", f.Harness)}
	for _, sr := range f.Scenarios {
		rows = append(rows, newRow(sr.Name, sr))
	}
	return rows
}

func toResult(name string, r *loadgen.Result) scaleResult {
	sr := scaleResult{
		Name:           name,
		Sessions:       r.Sessions,
		Arrival:        r.Arrival,
		ElapsedMS:      r.Elapsed.Milliseconds(),
		PlacedPerSec:   round2(r.PlacedPerSec),
		QueueWaitP50US: r.QueueWaitP50.Microseconds(),
		QueueWaitP99US: r.QueueWaitP99.Microseconds(),
		Completed:      r.Completed,
		LostDurable:    r.LostDurable,
		LostNonDurable: r.LostNonDurable,
		Spills:         r.Pool.Spills,
		Failovers:      r.Pool.Failovers,
		Markdowns:      r.Pool.Markdowns,
		Markups:        r.Pool.Markups,
		Retirements:    r.Pool.Retirements,
		Migrations:     r.Pool.Migrations,
		RetireVetoes:   r.Autoscaler.RetireVetoes,
		ScaleUps:       r.Autoscaler.ScaleUps,
		ScaleDowns:     r.Autoscaler.ScaleDowns,
		Faults:         r.Faults,
		PeakDaemons:    r.PeakDaemons,
		FinalDaemons:   r.DaemonsFinal,
	}
	for _, s := range r.Trajectory {
		sr.DaemonsOverTime = append(sr.DaemonsOverTime, s.Daemons)
	}
	for _, c := range r.Classes {
		if c.SchedClass == protocol.SchedClassUnspecified {
			continue
		}
		sr.Classes = append(sr.Classes, scaleClassResult{
			Name:       c.Name,
			SchedClass: schedClassName(c.SchedClass),
			Sessions:   c.Sessions,
			Placements: c.Placements,
			WaitP50US:  c.WaitP50.Microseconds(),
			WaitP99US:  c.WaitP99.Microseconds(),
		})
	}
	return sr
}

// scaleGate is the scale harness's invariant: the failover path loses no
// durable session, and the scenario is provisioned to place every session.
func scaleGate(r *loadgen.Result) error {
	if r.LostDurable != 0 {
		return fmt.Errorf("%d durable sessions lost — failover invariant broken", r.LostDurable)
	}
	if r.Unplaced != 0 {
		return fmt.Errorf("%d sessions never placed — scenario is under-provisioned", r.Unplaced)
	}
	return nil
}

func runScale(out io.Writer, check bool) (benchFile, []string, error) {
	f := scaleFile{Harness: "loadgen-v1"}
	var skipped []string
	w := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	defer w.Flush()
	fmt.Fprintln(w, "scenario\tsessions\tplaced\tp50 wait\tp99 wait\tdaemons\tspills\tfailovers\tlost")
	for _, sc := range scaleScenarios() {
		cfg := sc.build()
		if check && cfg.Sessions > scaleCheckCap {
			fmt.Fprintf(w, "%s\t%d\t(over the check cap: presence only)\n", sc.name, cfg.Sessions)
			skipped = append(skipped, sc.name)
			continue
		}
		r, err := loadgen.Run(cfg)
		if err == nil {
			err = scaleGate(r)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %v", sc.name, err)
		}
		sr := toResult(sc.name, r)
		fmt.Fprintf(w, "%s\t%d\t%.0f/s\t%dµs\t%dµs\t%d→%d peak %d\t%d\t%d\t%d\n",
			sr.Name, sr.Sessions, sr.PlacedPerSec, sr.QueueWaitP50US, sr.QueueWaitP99US,
			sr.DaemonsOverTime[0], sr.FinalDaemons, sr.PeakDaemons,
			sr.Spills, sr.Failovers, sr.LostNonDurable)
		f.Scenarios = append(f.Scenarios, sr)
	}
	return f, skipped, nil
}

func runScale1m(w io.Writer, _ bool) (benchFile, []string, error) {
	start := time.Now()
	r, err := loadgen.Run(loadgen.Config{
		Seed: 9, Sessions: 1_000_000, Arrival: loadgen.Poisson,
		Rate: 100_000, Classes: mix(), InitialDaemons: 8, DaemonCapacity: 64,
		Autoscale: &broker.AutoscalerConfig{
			Min: 8, Max: 128, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
		},
	})
	if err == nil {
		err = scaleGate(r)
	}
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "%d sessions: %.0f placements/s virtual, p99 wait %v, peak %d daemons, wall %v\n",
		r.Sessions, r.PlacedPerSec, r.QueueWaitP99, r.PeakDaemons, time.Since(start).Round(time.Millisecond))
	return nil, nil, nil
}
