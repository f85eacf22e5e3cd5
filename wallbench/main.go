// Command wallbench is the repository's wall-clock benchmark. It drives the
// real middleware in one process — rcuda.Client, loopback TCP, rcuda.Server,
// the scheduler and a simulated device on a simulated clock — and prints
// one JSON result line. See README.md for the workloads and metrics.
//
//	bash wallbench/run.sh --workload ctl-rtt --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"slices"
	"sync"
	"time"

	"rcuda/internal/rcuda"
	"rcuda/internal/transport"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	// setups is how many times an untraced run builds its stack; setup_s
	// is their median and the last one is measured.
	setups int
	// corrupt tampers with each tenant's first readback in the warm-up and
	// in the measured interval (self-test only).
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// joins reports, per connection of the traced run, whether every client
	// call joined exactly one server request.
	joins []joinReport
}

func main() {
	var cfg config
	var seconds int
	flag.StringVar(&cfg.workload, "workload", "ctl-rtt", "workload: ctl-rtt, bulk-copy or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the untraced and traced passes and prints per-layer metrics")
	flag.Parse()
	cfg.duration = time.Duration(seconds) * time.Second
	cfg.trace = *trace == 1
	cfg.setups = 25
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run, writing a human-readable report to out.
func run(cfg config, out io.Writer) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.duration <= 0 || cfg.setups < 1 {
		return nil, errors.New("duration and setups must be positive")
	}
	tenants, err := w.tenants(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("oracle precompute: %w", err)
	}
	fmt.Fprintf(out, "wallbench %s seed=%d: rcuda.Client -> TCP over the host loopback interface (not a real link) -> rcuda.Server -> simulated device on a simulated clock\n",
		w.name, cfg.seed)
	if !cfg.trace {
		// The benchmark's own live heap (oracle data), subtracted from the
		// peak so heap_peak_MiB is the middleware's.
		goruntime.GC()
		return runUntraced(w, tenants, heapObjects(heapSample()), cfg, out)
	}
	return runTraced(w, tenants, cfg, out)
}

// runUntraced builds the stack cfg.setups times, measures the last one and
// reports the end-to-end metrics.
func runUntraced(w *workload, tenants []*tenant, harnessHeap uint64, cfg config, out io.Writer) (*result, error) {
	var setups []float64
	var st *stack
	for i := 0; i < cfg.setups; i++ {
		goruntime.GC()
		t0 := time.Now()
		s, err := newStack(w, tenants, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
		}
		st = s
	}
	p, err := runPass(st, cfg.duration, false, cfg.corrupt)
	if err != nil {
		return nil, err
	}
	res := p.result()
	res.Metrics = endToEnd(p, median(setups), harnessHeap)
	reportCalls(out, "remote", p.recs)
	reportErrors(out, p)
	return res, nil
}

// runTraced measures an untraced pass and a traced pass of half the time
// each on fresh stacks, then the ladders, and reports per-layer metrics.
func runTraced(w *workload, tenants []*tenant, cfg config, out io.Writer) (*result, error) {
	half := cfg.duration / 2
	st, err := newStack(w, tenants, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain, err := runPass(st, half, false, cfg.corrupt)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if st, err = newStack(w, tenants, tr); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	traced, err := runPass(st, half, true, false)
	if err != nil {
		return nil, err
	}
	ts := joinAll(st, traced)
	local, err := localReplay(tenants)
	if err != nil {
		return nil, fmt.Errorf("local replay: %w", err)
	}
	codec, err := codecLadder(tr, ts.exchanges)
	if err != nil {
		return nil, fmt.Errorf("codec ladder: %w", err)
	}
	grant, err := schedLadder()
	if err != nil {
		return nil, fmt.Errorf("sched ladder: %w", err)
	}

	res := plain.result()
	for _, p := range []*passResult{traced, local} {
		attempted, failed := p.counts()
		res.Attempted += attempted
		res.Failed += failed
	}
	res.Correct = res.Failed == 0 && plain.err == nil && traced.err == nil && local.err == nil
	for _, j := range ts.joins {
		res.Correct = res.Correct && j.ok()
	}
	res.joins = ts.joins
	res.Metrics = perLayer(plain, traced, local, ts, codec, grant)
	reportCalls(out, "remote", plain.recs)
	reportCalls(out, "local", local.recs)
	reportLayers(out, ts)
	reportErrors(out, plain, traced, local)
	return res, nil
}

// passResult is one measured pass over a stack.
type passResult struct {
	recs    []*recorder
	warm    []*recorder
	start   time.Time
	end     time.Time
	ends    []time.Time // when each tenant's loop stopped
	mallocs uint64
	heap    uint64
	conn    transport.Stats // client and server connections, summed
	clients rcuda.ClientStats
	server  rcuda.StatsSnapshot
	busy    time.Duration
	frames  int64
	batched int64
	err     error
}

// counts totals the calls attempted and the ops failed, warm-up included.
func (p *passResult) counts() (attempted, failed int) {
	for _, r := range append(slices.Clone(p.recs), p.warm...) {
		attempted += r.calls
		failed += r.failed
	}
	return attempted, failed
}

// active is tenant i's loop wall time minus its harness time.
func (p *passResult) active(i int) time.Duration {
	return p.ends[i].Sub(p.start) - sum(p.recs[i].excl)
}

// windowActive is tenant i's wall time in window w minus its harness time
// there. The last window runs to the end of the tenant's last request.
func (p *passResult) windowActive(i, w int) time.Duration {
	r := p.recs[i]
	lo := p.start.Add(time.Duration(w) * r.win)
	hi := lo.Add(r.win)
	if w == windows-1 || p.ends[i].Before(hi) {
		hi = p.ends[i]
	}
	return hi.Sub(lo) - r.excl[w]
}

func (p *passResult) result() *result {
	attempted, failed := p.counts()
	return &result{Correct: failed == 0 && p.err == nil, Attempted: attempted, Failed: failed}
}

// runPass warms the stack up, measures d of closed-loop load from one
// goroutine per tenant, then runs the end-of-run checks and closes the
// stack. A failed op or check is counted in the pass, not returned.
func runPass(st *stack, d time.Duration, trace, corrupt bool) (*passResult, error) {
	n := len(st.sessions)
	p := &passResult{recs: make([]*recorder, n), warm: make([]*recorder, n)}
	// Warm-up runs past the heap's and the buffer pools' growth, which
	// otherwise leaves its slowest requests in the measured interval.
	warm := min(d/10, 3*time.Second)
	var pairs []*rawPair
	defer func() {
		for _, rp := range pairs {
			if err := rp.close(); err != nil && p.err == nil {
				p.err = fmt.Errorf("raw loopback: %w", err)
			}
		}
	}()
	for i := range p.recs {
		rp, err := newRawPair()
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		pairs = append(pairs, rp)
		if p.warm[i], err = newRecorder(warm, rp, false, corrupt); err != nil {
			return nil, errors.Join(err, st.close())
		}
		if p.recs[i], err = newRecorder(d, rp, trace, corrupt); err != nil {
			return nil, errors.Join(err, st.close())
		}
	}
	drive(st.sessions, p.warm, time.Now(), warm, 0)

	goruntime.GC()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	conn0, cli0, srv0 := st.counters()
	if st.tracer != nil {
		st.tracer.capture.Store(true)
	}
	hs := startHeapSampler(5 * time.Millisecond)
	p.start = time.Now()
	p.ends = drive(st.sessions, p.recs, p.start, d, 0)
	p.end = time.Now()
	p.heap = hs.finish()
	if st.tracer != nil {
		st.tracer.capture.Store(false)
	}
	goruntime.ReadMemStats(&m1)
	conn1, cli1, srv1 := st.counters()
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.conn = subConnStats(conn1, conn0)
	p.clients = subClientStats(cli1, cli0)
	p.server = srv1
	p.busy = srv1.Devices[0].Busy - srv0.Devices[0].Busy
	p.frames = srv1.BatchFrames - srv0.BatchFrames
	p.batched = srv1.BatchedOps - srv0.BatchedOps
	for i := range p.server.Classes {
		c, c0 := &p.server.Classes[i], srv0.Classes[i]
		c.Served -= c0.Served
		c.Preempted -= c0.Preempted
	}
	for _, r := range append(slices.Clone(p.recs), p.warm...) {
		if err := r.collect(); err != nil && p.err == nil {
			p.err = err
		}
	}
	if err := st.finish(p.recs); err != nil && p.err == nil {
		p.err = err
	}
	return p, nil
}

// drive runs each session's closed loop on its own goroutine from start
// until d has passed or, when count > 0, for count requests. A tenant stops
// at its first failure. It returns when each tenant's loop stopped.
func drive(sessions []session, recs []*recorder, start time.Time, d time.Duration, count int) []time.Time {
	ends := make([]time.Time, len(sessions))
	var wg sync.WaitGroup
	deadline := start.Add(d)
	for i := range sessions {
		r := recs[i]
		r.start = start
		if count == 0 {
			r.win = d / windows
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := sessions[i]
			for n := 0; count > 0 && n < count || count == 0 && time.Now().Before(deadline); n++ {
				t0 := time.Now()
				r.reqEnd = time.Time{}
				err := s.step(r)
				if r.reqEnd.IsZero() {
					r.reqEnd = time.Now()
				}
				w := r.window(r.reqEnd)
				r.excl[w] += time.Since(r.reqEnd)
				if err != nil {
					r.log.add(kindReq, w, failedLatency, 0)
					break
				}
				r.log.add(kindReq, w, r.reqEnd.Sub(t0), 0)
			}
			ends[i] = time.Now()
		}(i)
	}
	wg.Wait()
	return ends
}

// counters snapshots the stack's connection, client and server counters.
func (st *stack) counters() (transport.Stats, []rcuda.ClientStats, rcuda.StatsSnapshot) {
	var conn transport.Stats
	st.mu.Lock()
	conns := append(slices.Clone(st.cliConns), st.srvConns...)
	st.mu.Unlock()
	for _, c := range conns {
		s := c.Stats()
		conn.MessagesSent += s.MessagesSent
		conn.MessagesRecv += s.MessagesRecv
		conn.BytesSent += s.BytesSent
		conn.BytesRecv += s.BytesRecv
		conn.PoolHits += s.PoolHits
		conn.PoolMisses += s.PoolMisses
	}
	cli := make([]rcuda.ClientStats, len(st.clients))
	for i, c := range st.clients {
		cli[i] = c.Stats()
	}
	return conn, cli, st.srv.StatsSnapshot()
}

func subConnStats(a, b transport.Stats) transport.Stats {
	return transport.Stats{
		MessagesSent: a.MessagesSent - b.MessagesSent,
		MessagesRecv: a.MessagesRecv - b.MessagesRecv,
		BytesSent:    a.BytesSent - b.BytesSent,
		BytesRecv:    a.BytesRecv - b.BytesRecv,
		PoolHits:     a.PoolHits - b.PoolHits,
		PoolMisses:   a.PoolMisses - b.PoolMisses,
	}
}

// subClientStats sums the per-client deltas of the counters the
// benchmark reports.
func subClientStats(a, b []rcuda.ClientStats) rcuda.ClientStats {
	var out rcuda.ClientStats
	for i := range a {
		out.OpsCoalesced += a[i].OpsCoalesced - b[i].OpsCoalesced
		out.CacheHits += a[i].CacheHits - b[i].CacheHits
		out.CacheMisses += a[i].CacheMisses - b[i].CacheMisses
	}
	return out
}

// rate is requests per second of a tenant's active time.
func rate(n int, active time.Duration) float64 {
	if active <= 0 {
		return 0
	}
	return float64(n) / active.Seconds()
}

// endToEnd derives the user-facing metrics of an untraced pass. Timings
// and rates are the median over the pass's windows. Tenant 0 issues the
// workload's requests (ctl-rtt items, bulk-copy copies, serve-mixed
// inference requests).
func endToEnd(p *passResult, setup float64, harnessHeap uint64) map[string]metric {
	calls := allLatencies(p.recs)
	out := map[string]metric{
		"setup_s":         {setup, "s"},
		"allocs_per_call": {float64(p.mallocs) / float64(max(1, len(calls))), "count"},
		"heap_peak_MiB":   {(float64(p.heap) - float64(harnessHeap)) / (1 << 20), "MiB"},
	}
	values := make(map[string][]float64)
	fewCalls, fewReqs := false, false
	for w := range windows {
		n := 0
		for name, m := range windowMetrics(p, w) {
			values[name] = append(values[name], m.Value)
			out[name] = m
		}
		for _, r := range p.recs {
			n += len(r.byWin[w].calls)
		}
		fewCalls = fewCalls || n < minTail
		fewReqs = fewReqs || len(p.recs[0].byWin[w].reqs) < minTail
	}
	for name, v := range values {
		out[name] = metric{median(v), out[name].Unit}
	}
	// A window's p99 rests on a handful of samples when the window holds
	// fewer than minTail (bulk-copy's 64 MiB copies); there the p99 of the
	// whole run is the steadier estimate.
	if fewCalls {
		out["call_p99_us"] = metric{us(quantile(calls, 0.99)), "us"}
	}
	if fewReqs {
		out["req_p99_ms"] = metric{ms(quantile(p.recs[0].reqs, 0.99)), "ms"}
	}
	return out
}

// minTail is the fewest samples a window needs for its own p99: ten beyond
// the percentile.
const minTail = 1000

// windowMetrics computes the timings and rates of one window.
func windowMetrics(p *passResult, w int) map[string]metric {
	var calls []time.Duration
	var h2d, d2h []float64
	var callRate, mmRate float64
	for i, r := range p.recs {
		ws := &r.byWin[w]
		active := p.windowActive(i, w)
		calls = append(calls, ws.calls...)
		h2d = append(h2d, ws.bw[0]...)
		d2h = append(d2h, ws.bw[1]...)
		callRate += rate(len(ws.calls), active)
		mmRate += rate(r.mms[w], active)
	}
	req := p.recs[0].byWin[w].reqs
	return map[string]metric{
		"call_p50_us": {us(quantile(calls, 0.50)), "us"},
		"call_p99_us": {us(quantile(calls, 0.99)), "us"},
		"calls_per_s": {callRate, "1/s"},
		"h2d_GBps":    {median(h2d), "GB/s"},
		"d2h_GBps":    {median(d2h), "GB/s"},
		"req_p50_ms":  {ms(quantile(req, 0.50)), "ms"},
		"req_p99_ms":  {ms(quantile(req, 0.99)), "ms"},
		"reqs_per_s":  {rate(len(req), p.windowActive(0, w)), "1/s"},
		"mm_per_s":    {mmRate, "1/s"},
	}
}

// reportCalls prints the per-op call latencies of a pass.
func reportCalls(out io.Writer, label string, recs []*recorder) {
	fmt.Fprintf(out, "%-6s %-18s %8s %10s %10s\n", label, "op", "calls", "p50_us", "p99_us")
	for o := op(0); o < numOps; o++ {
		l := opLatencies(recs, o)
		if len(l) == 0 {
			continue
		}
		fmt.Fprintf(out, "%-6s %-18s %8d %10.2f %10.2f\n", label, o, len(l), us(quantile(l, 0.5)), us(quantile(l, 0.99)))
	}
}

// reportErrors prints each pass's error and each tenant's first failure.
func reportErrors(out io.Writer, passes ...*passResult) {
	for _, p := range passes {
		if p.err != nil {
			fmt.Fprintln(out, "error:", p.err)
		}
		for _, r := range append(slices.Clone(p.recs), p.warm...) {
			if r.firstErr != nil {
				fmt.Fprintln(out, "failure:", r.firstErr)
			}
		}
	}
}
