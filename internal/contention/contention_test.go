package contention

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cluster"
	"rcuda/internal/des"
	"rcuda/internal/netsim"
	"rcuda/internal/workload"
)

func TestValidation(t *testing.T) {
	link := netsim.IB40G()
	if _, err := Run(Params{CS: calib.MM, Size: 4096, Clients: 0, Link: link}); err == nil {
		t.Fatal("zero clients must fail")
	}
	if _, err := Run(Params{CS: calib.MM, Size: 4096, Clients: 1}); err == nil {
		t.Fatal("nil link must fail")
	}
	if _, err := Run(Params{CS: calib.MM, Size: 0, Clients: 1, Link: link}); err == nil {
		t.Fatal("zero size must fail")
	}
	if _, err := Sweep(Params{CS: calib.MM, Size: 4096, Link: link}, 0); err == nil {
		t.Fatal("zero sweep must fail")
	}
}

// The event-level model with one client must reproduce the synchronous
// analytic execution exactly: same components, same serialization.
func TestSingleClientMatchesWorkloadModel(t *testing.T) {
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		for _, netName := range []string{"GigaE", "40GI"} {
			link, err := netsim.ByName(netName)
			if err != nil {
				t.Fatal(err)
			}
			size := calib.Sizes(cs)[0]
			res, err := Run(Params{CS: cs, Size: size, Clients: 1, Link: link})
			if err != nil {
				t.Fatal(err)
			}
			want, err := workload.Run(cs, size, workload.Remote, workload.Options{Link: link})
			if err != nil {
				t.Fatal(err)
			}
			if res.PerClient[0] != want.Total {
				t.Fatalf("%v over %s: DES %v, analytic %v", cs, netName, res.PerClient[0], want.Total)
			}
		}
	}
}

func TestContentionSlowsClientsDown(t *testing.T) {
	link := netsim.IB40G()
	single, err := Run(Params{CS: calib.MM, Size: 4096, Clients: 1, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(Params{CS: calib.MM, Size: 4096, Clients: 4, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	if len(four.PerClient) != 4 {
		t.Fatalf("per-client results: %d", len(four.PerClient))
	}
	// Every contended client is at least as slow as the lone one; the
	// worst is strictly slower.
	var worst time.Duration
	for _, d := range four.PerClient {
		if d < single.PerClient[0] {
			t.Fatalf("contended client (%v) beat the lone client (%v)", d, single.PerClient[0])
		}
		if d > worst {
			worst = d
		}
	}
	if worst <= single.PerClient[0] {
		t.Fatal("contention must slow someone down")
	}
	// But sharing still beats running the four serially: the prep phases
	// overlap.
	if four.Makespan >= 4*single.PerClient[0] {
		t.Fatalf("makespan %v not better than serial %v", four.Makespan, 4*single.PerClient[0])
	}
}

func TestGPUBoundSharingScalesByDeviceTime(t *testing.T) {
	// For MM over a fast link the GPU is the bottleneck: K clients'
	// makespan approaches K × (device time per job), not K × (full job).
	link := netsim.IB40G()
	const k = 4
	res, err := Run(Params{CS: calib.MM, Size: 8192, Clients: k, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	device := 3*calib.PCIeTime(calib.MM, 8192) + calib.KernelTime(calib.MM, 8192)
	lower := time.Duration(k) * device
	if res.Makespan < lower {
		t.Fatalf("makespan %v below the GPU-serialization bound %v", res.Makespan, lower)
	}
	if res.Makespan > lower+lower/2 {
		t.Fatalf("makespan %v far above the GPU bound %v — device should dominate on 40GI", res.Makespan, lower)
	}
	if res.GPUUtilization < 0.6 {
		t.Fatalf("GPU utilization %.2f too low for a GPU-bound mix", res.GPUUtilization)
	}
}

func TestNetworkBoundSharingLoadsTheLink(t *testing.T) {
	// Over GigaE the wire dominates the FFT (two ~300 ms transfers versus
	// ~150 ms of device work per client): with several clients the link
	// is the busier resource by a wide margin.
	res, err := Run(Params{CS: calib.FFT, Size: 8192, Clients: 4, Link: netsim.GigaE()})
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkUtilization <= 2*res.GPUUtilization {
		t.Fatalf("on GigaE the wire must dominate: link %.2f vs GPU %.2f",
			res.LinkUtilization, res.GPUUtilization)
	}
	if res.LinkUtilization < 0.5 {
		t.Fatalf("link utilization %.2f too low for four wire-bound clients", res.LinkUtilization)
	}
	// The mirror image on 40GI with MM: the GPU is the busier resource.
	res, err = Run(Params{CS: calib.MM, Size: 8192, Clients: 4, Link: netsim.IB40G()})
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUUtilization <= res.LinkUtilization {
		t.Fatalf("on 40GI the GPU must dominate: GPU %.2f vs link %.2f",
			res.GPUUtilization, res.LinkUtilization)
	}
}

func TestStaggerReducesQueueing(t *testing.T) {
	link := netsim.IB40G()
	burst, err := Run(Params{CS: calib.FFT, Size: 4096, Clients: 6, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals spread over ~6 job-lengths should reduce the worst
	// client's turnaround.
	spread, err := Run(Params{CS: calib.FFT, Size: 4096, Clients: 6, Link: link, Stagger: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if P95Turnaround(spread) >= P95Turnaround(burst) {
		t.Fatalf("staggered p95 %v should beat burst p95 %v", P95Turnaround(spread), P95Turnaround(burst))
	}
}

func TestSweepAndSlowdownShape(t *testing.T) {
	link := netsim.IB40G()
	results, err := Sweep(Params{CS: calib.MM, Size: 4096, Link: link}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("sweep returned %d results", len(results))
	}
	slow := Slowdown(results)
	if math.Abs(slow[0]-1) > 1e-9 {
		t.Fatalf("single-client slowdown %v, want 1", slow[0])
	}
	for i := 1; i < len(slow); i++ {
		if slow[i] < slow[i-1]-1e-9 {
			t.Fatalf("slowdown must not improve with more clients: %v", slow)
		}
	}
	if slow[5] <= 1.5 {
		t.Fatalf("six clients on one GPU should slow each other markedly, got %.2fx", slow[5])
	}
}

func TestDeterminism(t *testing.T) {
	p := Params{CS: calib.FFT, Size: 2048, Clients: 5, Link: netsim.GigaE(), Stagger: time.Millisecond}
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("runs diverged: %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.PerClient {
		if a.PerClient[i] != b.PerClient[i] {
			t.Fatal("per-client times diverged")
		}
	}
}

func TestP95Degenerate(t *testing.T) {
	if P95Turnaround(Result{}) != 0 {
		t.Fatal("empty result p95")
	}
	one := Result{PerClient: []time.Duration{time.Second}}
	if P95Turnaround(one) != time.Second {
		t.Fatal("single-client p95")
	}
}

// Consistency with the cluster-level list-scheduling model: the coarse
// model holds the GPU for a job's entire network+device service, so its
// makespan upper-bounds the event-level simulation, which overlaps one
// client's wire time with another's device time.
func TestDESConsistentWithClusterModel(t *testing.T) {
	link := netsim.IB40G()
	const k = 4
	fine, err := Run(Params{CS: calib.MM, Size: 8192, Clients: k, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]cluster.Job, k)
	for i := range jobs {
		jobs[i] = cluster.Job{ID: i, CS: calib.MM, Size: 8192}
	}
	coarse, err := cluster.Simulate(cluster.Config{
		Nodes: k, GPUs: 1, Network: link, Policy: cluster.LeastLoaded,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Makespan > coarse.Makespan {
		t.Fatalf("event-level makespan %v exceeds the coarse upper bound %v",
			fine.Makespan, coarse.Makespan)
	}
	// And both sit above the trivial lower bound: the serialized device
	// work.
	device := time.Duration(k) * (3*calib.PCIeTime(calib.MM, 8192) + calib.KernelTime(calib.MM, 8192))
	if fine.Makespan < device {
		t.Fatalf("event-level makespan %v below the device bound %v", fine.Makespan, device)
	}
}

// The resource and replay tests below pin the engine semantics Run relies
// on: exclusive FIFO hand-off, busy-span accounting, deadlock detection,
// hold clamping, and seeded reproducibility.

func TestResourceSerializes(t *testing.T) {
	loop := des.NewEventLoop()
	r := &resource{loop: loop}
	turnaround := replay(loop, []step{{res: r, d: 10 * time.Millisecond}}, 3, 0)
	if end := loop.Now(); end != 30*time.Millisecond {
		t.Fatalf("three exclusive 10ms jobs end at %v, want 30ms", end)
	}
	for i, want := range []time.Duration{10, 20, 30} {
		if turnaround[i] != want*time.Millisecond {
			t.Fatalf("client %d finished after %v, want %v (FIFO violated?)", i, turnaround[i], want*time.Millisecond)
		}
	}
	if u := r.utilization(); u < 0.999 || u > 1.001 {
		t.Fatalf("utilization %v, want 1.0", u)
	}
}

func TestResourceFIFOUnderContention(t *testing.T) {
	loop := des.NewEventLoop()
	r := &resource{loop: loop}
	var order []string
	// The holder takes the unit at t=0 for 10ms; two waiters queue at 1ms
	// and 2ms and must be served in arrival order.
	r.acquire(func() {
		loop.At(10*time.Millisecond, r.release)
	})
	for i, name := range []string{"first", "second"} {
		name := name
		loop.At(time.Duration(i+1)*time.Millisecond, func() {
			r.acquire(func() {
				order = append(order, name)
				loop.At(time.Millisecond, r.release)
			})
		})
	}
	loop.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("waiter order %v", order)
	}
	if end := loop.Now(); end != 12*time.Millisecond {
		t.Fatalf("hand-offs should be back to back, run ended at %v", end)
	}
}

// A release hands the unit over as a new event at the same instant: the
// releaser's own continuation runs first, as a coroutine keeps running
// until it next blocks, and the waiter is granted after it.
func TestReleaseHandsOffAfterReleaserContinues(t *testing.T) {
	loop := des.NewEventLoop()
	r := &resource{loop: loop}
	var order []string
	var at []time.Duration
	log := func(what string) {
		order = append(order, what)
		at = append(at, loop.Now())
	}
	r.acquire(func() {
		loop.At(time.Millisecond, func() {
			r.release()
			log("releaser continues")
		})
	})
	r.acquire(func() {
		log("waiter granted")
		r.release()
	})
	loop.Run()
	if len(order) != 2 || order[0] != "releaser continues" || order[1] != "waiter granted" {
		t.Fatalf("order %v", order)
	}
	if at[0] != time.Millisecond || at[1] != time.Millisecond {
		t.Fatalf("hand-off left the instant: %v", at)
	}
}

func TestUtilizationPartial(t *testing.T) {
	loop := des.NewEventLoop()
	r := &resource{loop: loop}
	// Busy 10ms, then a 10ms node-local tail.
	replay(loop, []step{{res: r, d: 10 * time.Millisecond}, {d: 10 * time.Millisecond}}, 1, 0)
	if u := r.utilization(); u < 0.499 || u > 0.501 {
		t.Fatalf("utilization %v, want 0.5", u)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("deadlock must panic")
		}
	}()
	loop := des.NewEventLoop()
	r := &resource{loop: loop}
	r.acquire(func() {}) // never released; the client blocks forever
	replay(loop, []step{{res: r, d: time.Millisecond}}, 1, 0)
}

func TestZeroAndNegativeHoldsClamp(t *testing.T) {
	loop := des.NewEventLoop()
	r := &resource{loop: loop}
	steps := []step{{d: -5 * time.Millisecond}, {res: r, d: 0}, {res: r, d: -time.Second}, {d: 3 * time.Millisecond}}
	turnaround := replay(loop, steps, 2, time.Millisecond)
	if turnaround[0] != 3*time.Millisecond || turnaround[1] != 3*time.Millisecond {
		t.Fatalf("turnarounds %v, want 3ms each: non-positive holds take no time", turnaround)
	}
	if u := r.utilization(); u != 0 {
		t.Fatalf("utilization %v, want 0 for zero-length holds", u)
	}
}

func TestResourceDeterminism(t *testing.T) {
	run := func() ([]time.Duration, float64, float64) {
		rng := rand.New(rand.NewSource(9))
		loop := des.NewEventLoop()
		link, gpu := &resource{loop: loop}, &resource{loop: loop}
		var steps []step
		for i := 0; i < 40; i++ {
			// Millisecond-granular holds force hand-off ties.
			s := step{d: time.Duration(rng.Intn(3)) * time.Millisecond}
			switch rng.Intn(3) {
			case 0:
				s.res = link
			case 1:
				s.res = gpu
			}
			steps = append(steps, s)
		}
		turnaround := replay(loop, steps, 6, 500*time.Microsecond)
		return turnaround, link.utilization(), gpu.utilization()
	}
	a, aLink, aGPU := run()
	b, bLink, bGPU := run()
	if aLink != bLink || aGPU != bGPU {
		t.Fatalf("utilizations diverged: link %v/%v gpu %v/%v", aLink, bLink, aGPU, bGPU)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("client %d: %v vs %v", i, a[i], b[i])
		}
	}
}
