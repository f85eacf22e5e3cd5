package main

import (
	"errors"
	"fmt"
	"io"
	goruntime "runtime"
	"slices"
	"strings"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/protocol"
	"rcuda/internal/sched"
	"rcuda/internal/vclock"
)

// exchange is one request/response on a traced connection, joined across
// client and server. The protocol is synchronous, so the client's n-th
// request on a connection is the server's n-th.
type exchange struct {
	op           protocol.Op
	csend, crecv msgSpan
	srecv, ssend msgSpan
}

func (x *exchange) clientSend() time.Duration { return x.csend.end.Sub(x.csend.start) }
func (x *exchange) serverSend() time.Duration { return x.ssend.end.Sub(x.ssend.start) }

// dispatch is the server's time from Recv returning to Send starting.
func (x *exchange) dispatch() time.Duration { return x.ssend.start.Sub(x.srecv.end) }

// wire is the client's call window minus its own send and the server's
// residence: the paper's network time taken as the difference.
func (x *exchange) wire() time.Duration {
	return x.crecv.end.Sub(x.csend.start) - x.clientSend() - x.ssend.end.Sub(x.srecv.end)
}

// half is one side's view of an exchange: the request span and, if the
// op has one, the reply span.
type half struct {
	req, reply msgSpan
	replied    bool
}

// halves groups a connection's spans into exchanges. A side's exchange
// starts with the span that carries the request: a client Send or a
// server Recv.
func halves(spans []msgSpan, server bool) []half {
	var out []half
	for _, s := range spans {
		if s.send != server {
			out = append(out, half{req: s})
			continue
		}
		if len(out) == 0 || out[len(out)-1].replied {
			// A reply without a request: leave it unjoined.
			out = append(out, half{})
		}
		out[len(out)-1].reply, out[len(out)-1].replied = s, true
	}
	return out
}

// joinReport is the join outcome of one connection.
type joinReport struct {
	conn            int
	client, server  int // exchanges seen on each side
	matched         int // exchanges whose op and reply agree on both sides
	inPass, replied int
}

func (j joinReport) ok() bool { return j.client == j.server && j.matched == j.client }

// traceStats is what the traced pass yields after the join.
type traceStats struct {
	joins     []joinReport
	exchanges []exchange      // joined, replied, inside the measured interval
	self      []time.Duration // per API call: call time minus its sends and receives
}

// joinAll joins every connection of a closed traced stack and attributes
// client transport time to the API calls of the traced pass.
func joinAll(st *stack, p *passResult) traceStats {
	var ts traceStats
	for i := range st.cliConns {
		cli := st.cliConns[i].(*tracedConn)
		srv := st.srvConns[i].(*tracedConn)
		c, s := halves(cli.spans, false), halves(srv.spans, true)
		j := joinReport{conn: i, client: len(c), server: len(s)}
		for k := range min(len(c), len(s)) {
			if c[k].req.op != s[k].req.op || c[k].replied != s[k].replied {
				continue
			}
			j.matched++
			x := exchange{op: c[k].req.op, csend: c[k].req, crecv: c[k].reply, srecv: s[k].req, ssend: s[k].reply}
			if !x.csend.start.Before(p.start) && !x.crecv.end.After(p.end) {
				j.inPass++
				if c[k].replied {
					j.replied++
					ts.exchanges = append(ts.exchanges, x)
				}
			}
		}
		ts.joins = append(ts.joins, j)
		ts.self = append(ts.self, selfTimes(p.recs[i].spans, cli.spans)...)
	}
	return ts
}

// selfTimes subtracts, from each API call, the client Send and Recv spans
// it contains. Both lists come from one goroutine, in time order.
func selfTimes(calls []callSpan, msgs []msgSpan) []time.Duration {
	out := make([]time.Duration, 0, len(calls))
	k := 0
	for _, c := range calls {
		for k < len(msgs) && msgs[k].start.Before(c.start) {
			k++
		}
		self := c.end.Sub(c.start)
		for ; k < len(msgs) && !msgs[k].end.After(c.end); k++ {
			self -= msgs[k].end.Sub(msgs[k].start)
		}
		out = append(out, self)
	}
	return out
}

// opName is the metric suffix of a wire op.
func opName(o protocol.Op) string {
	switch o {
	case protocol.OpMemcpyToDevice:
		return "memcpy_h2d"
	case protocol.OpMemcpyToHost:
		return "memcpy_d2h"
	}
	return strings.ToLower(strings.NewReplacer(" ", "_", "(", "", ")", "").Replace(o.String()))
}

// dispatchTimes returns the dispatch times of the exchanges of one op, or
// of all of them when all is set.
func dispatchTimes(xs []exchange, o protocol.Op, all bool) []time.Duration {
	var out []time.Duration
	for i := range xs {
		if all || xs[i].op == o {
			out = append(out, xs[i].dispatch())
		}
	}
	return out
}

func exchangeTimes(xs []exchange, f func(*exchange) time.Duration) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i := range xs {
		out[i] = f(&xs[i])
	}
	return out
}

// codecResult is the protocol layer replayed on captured payloads.
type codecResult struct {
	encodeNs, decodeNs, allocs float64
}

// codecLadder replays captured payloads through the protocol package's
// decoders and encoders, weighting each payload kind by how often the
// traced pass sent it.
func codecLadder(tr *tracer, xs []exchange) (codecResult, error) {
	counts := make(map[sampleKey]int)
	for _, x := range xs {
		counts[sampleKey{op: x.op}]++
		counts[sampleKey{resp: true, op: x.op}]++
	}
	var res codecResult
	var weight float64
	for k, samples := range tr.samples {
		n := counts[k]
		if n == 0 {
			continue
		}
		var enc, dec, allocs float64
		for _, p := range samples {
			e, d, a, err := replayCodec(k, p)
			if err != nil {
				return res, fmt.Errorf("%v: %w", k.op, err)
			}
			enc, dec, allocs = enc+e, dec+d, allocs+a
		}
		w := float64(n) / float64(len(samples))
		res.encodeNs += w * enc
		res.decodeNs += w * dec
		res.allocs += w * allocs
		weight += float64(n)
	}
	if weight > 0 {
		res.encodeNs /= weight
		res.decodeNs /= weight
		res.allocs /= weight
	}
	return res, nil
}

// replayCodec times decoding p and encoding the decoded message, in ns per
// message, and counts their allocations per message.
func replayCodec(k sampleKey, p []byte) (encNs, decNs, allocs float64, err error) {
	m, decode, err := codecCase(k, p)
	if err != nil {
		return 0, 0, 0, err
	}
	reps := max(1, min(2000, (4<<20)/max(1, len(p))))
	buf := make([]byte, 0, m.WireSize())
	var ms0, ms1, ms2 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	t0 := time.Now()
	for range reps {
		if err := decode(); err != nil {
			return 0, 0, 0, err
		}
	}
	t1 := time.Now()
	goruntime.ReadMemStats(&ms1)
	t2 := time.Now()
	for range reps {
		buf = m.Encode(buf[:0])
	}
	t3 := time.Now()
	goruntime.ReadMemStats(&ms2)
	if len(buf) != len(p) {
		return 0, 0, 0, fmt.Errorf("re-encoded %d bytes, captured %d", len(buf), len(p))
	}
	n := float64(reps)
	return float64(t3.Sub(t2).Nanoseconds()) / n, float64(t1.Sub(t0).Nanoseconds()) / n,
		float64(ms2.Mallocs-ms0.Mallocs) / n, nil
}

// asMessage adapts a typed decoder result.
func asMessage[T protocol.Message](m T, err error) (protocol.Message, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}

// codecCase decodes a captured payload once into the message to re-encode
// and returns the decode call to time: the one the middleware makes for
// that payload.
func codecCase(k sampleKey, p []byte) (protocol.Message, func() error, error) {
	if !k.resp {
		m, err := asMessage(protocol.DecodeRequest(p))
		return m, func() error { _, err := protocol.DecodeRequest(p); return err }, err
	}
	var dec func([]byte) (protocol.Message, error)
	switch k.op {
	case protocol.OpMalloc:
		dec = func(b []byte) (protocol.Message, error) { return asMessage(protocol.DecodeMallocResponse(b)) }
	case protocol.OpMemcpyToDevice, protocol.OpMemcpyToDeviceAsync:
		dec = func(b []byte) (protocol.Message, error) { return asMessage(protocol.DecodeMemcpyToDeviceResponse(b)) }
	case protocol.OpMemcpyToHost:
		// The client decodes the reply straight into the caller's buffer.
		m, err := asMessage(protocol.DecodeMemcpyToHostResponse(p))
		dst := make([]byte, max(0, len(p)-4))
		return m, func() error { _, err := protocol.DecodeMemcpyToHostResponseInto(p, dst); return err }, err
	case protocol.OpLaunch:
		dec = func(b []byte) (protocol.Message, error) { return asMessage(protocol.DecodeLaunchResponse(b)) }
	case protocol.OpFree:
		dec = func(b []byte) (protocol.Message, error) { return asMessage(protocol.DecodeFreeResponse(b)) }
	case protocol.OpBatch:
		dec = func(b []byte) (protocol.Message, error) { return asMessage(protocol.DecodeBatchResponse(b)) }
	case protocol.OpGetDeviceProperties:
		dec = func(b []byte) (protocol.Message, error) {
			return asMessage(protocol.DecodeGetDevicePropertiesResponse(b))
		}
	case protocol.OpStreamCreate:
		dec = func(b []byte) (protocol.Message, error) { return asMessage(protocol.DecodeStreamCreateResponse(b)) }
	case protocol.OpEventCreate:
		dec = func(b []byte) (protocol.Message, error) { return asMessage(protocol.DecodeEventCreateResponse(b)) }
	default:
		// Every other op the workloads issue answers with a bare result
		// code.
		dec = func(b []byte) (protocol.Message, error) { return asMessage(protocol.DecodeSyncResponse(b)) }
	}
	m, err := dec(p)
	return m, func() error { _, err := dec(p); return err }, err
}

// schedLadder times one uncontended Acquire+Release pair on a sched.Queue,
// in ns: the median of five batches.
func schedLadder() (float64, error) {
	q := sched.NewQueue(sched.Config{Policy: sched.WFQ}, vclock.NewSim())
	s := q.Register(sched.Realtime, 1)
	const n = 50000
	var per []float64
	for range 5 {
		t0 := time.Now()
		for range n {
			if err := q.Acquire(s, time.Microsecond, nil); err != nil {
				return 0, err
			}
			q.Release(s, time.Microsecond)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(per), nil
}

// localReplay replays each tenant's seeded call sequence on cudart.Local
// over a simulated-clock device: the paper's local-GPU baseline, run on
// the same device model without the middleware.
func localReplay(tenants []*tenant) (*passResult, error) {
	_, mod, err := moduleImage()
	if err != nil {
		return nil, err
	}
	p := &passResult{}
	for _, t := range tenants {
		rt, err := cudart.OpenLocal(gpu.New(gpu.Config{Clock: vclock.NewSim()}), mod, cudart.Preinitialized())
		if err != nil {
			return nil, err
		}
		s, err := t.open(rt)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", t.name, err)
		}
		r, err := newRecorder(time.Second, nil, false, false)
		if err != nil {
			return nil, err
		}
		drive([]session{s}, []*recorder{r}, time.Now(), 0, t.replay)
		if err := errors.Join(r.collect(), s.finish(r)); err != nil && p.err == nil {
			p.err = err
		}
		if err := rt.Close(); err != nil && p.err == nil {
			p.err = err
		}
		p.recs = append(p.recs, r)
	}
	return p, nil
}

// p50 of one op across recorders, or of every call when o is numOps.
func opP50(recs []*recorder, o op) time.Duration {
	if o == numOps {
		return quantile(allLatencies(recs), 0.5)
	}
	return quantile(opLatencies(recs, o), 0.5)
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer derives the per-layer metrics from the untraced pass (counts,
// remote latencies, the ceiling), the traced pass (spans) and the ladders.
func perLayer(plain, traced, local *passResult, ts traceStats, codec codecResult, grant float64) map[string]metric {
	calls := float64(len(allLatencies(plain.recs)))
	var h2d, d2h, raw []float64
	for _, r := range plain.recs {
		h2d, d2h, raw = append(h2d, r.bw[0]...), append(d2h, r.bw[1]...), append(raw, r.rawGBps...)
	}
	loop := median(raw)
	var plainRate, tracedRate float64
	for i, r := range plain.recs {
		plainRate += rate(r.calls, plain.active(i))
	}
	for i, r := range traced.recs {
		tracedRate += rate(r.calls, traced.active(i))
	}
	xs := ts.exchanges
	m := map[string]metric{
		"transport.client_send_us":         {us(quantile(exchangeTimes(xs, (*exchange).clientSend), 0.5)), "us"},
		"transport.server_send_us":         {us(quantile(exchangeTimes(xs, (*exchange).serverSend), 0.5)), "us"},
		"transport.wire_us":                {us(quantile(exchangeTimes(xs, (*exchange).wire), 0.5)), "us"},
		"transport.msgs_per_call":          {frac(float64(plain.conn.MessagesSent), calls), "count"},
		"transport.bytes_per_call":         {frac(float64(plain.conn.BytesSent), calls), "B"},
		"transport.pool_hit_frac":          {frac(float64(plain.conn.PoolHits), float64(plain.conn.PoolHits+plain.conn.PoolMisses)), "frac"},
		"transport.loopback_GBps":          {loop, "GB/s"},
		"transport.h2d_ceiling_frac":       {frac(median(h2d), loop), "frac"},
		"transport.d2h_ceiling_frac":       {frac(median(d2h), loop), "frac"},
		"protocol.encode_ns_per_msg":       {codec.encodeNs, "ns"},
		"protocol.decode_ns_per_msg":       {codec.decodeNs, "ns"},
		"protocol.allocs_per_msg":          {codec.allocs, "count"},
		"rcuda.server.batch_ops_per_frame": {frac(float64(plain.batched), float64(plain.frames)), "count"},
		"rcuda.client.self_us":             {us(quantile(ts.self, 0.5)), "us"},
		"rcuda.client.ops_coalesced_frac":  {frac(float64(plain.clients.OpsCoalesced), calls), "frac"},
		"rcuda.client.cache_hit_frac":      {frac(float64(plain.clients.CacheHits), float64(plain.clients.CacheHits+plain.clients.CacheMisses)), "frac"},
		"sched.grant_ns":                   {grant, "ns"},
		"gpu.busy_model_ms":                {ms(plain.busy), "model_ms"},
		"trace.overhead_frac":              {frac(plainRate, tracedRate) - 1, "frac"},
	}
	for _, c := range []struct {
		name string
		wire protocol.Op
		call op
		all  bool
	}{
		{"memcpy_h2d", protocol.OpMemcpyToDevice, opH2D, false},
		{"memcpy_d2h", protocol.OpMemcpyToHost, opD2H, false},
		{"all", 0, numOps, true},
	} {
		d := dispatchTimes(xs, c.wire, c.all)
		m["rcuda.server.dispatch_p50_us."+c.name] = metric{us(quantile(d, 0.5)), "us"}
		m["rcuda.server.dispatch_p99_us."+c.name] = metric{us(quantile(d, 0.99)), "us"}
		m["rcuda.overhead_us."+c.name] = metric{us(opP50(plain.recs, c.call) - opP50(local.recs, c.call)), "us"}
		m["gpu.op_us."+c.name] = metric{us(opP50(local.recs, c.call)), "us"}
	}
	for _, class := range []sched.Class{sched.Realtime, sched.BestEffort} {
		var served, preempted float64
		var wait time.Duration
		for _, c := range plain.server.Classes {
			if c.Class == class {
				served, preempted, wait = float64(c.Served), float64(c.Preempted), c.WaitP99
			}
		}
		m["sched.served."+class.String()] = metric{served, "count"}
		m["sched.preempted."+class.String()] = metric{preempted, "count"}
		m["sched.wait_p99_model_us."+class.String()] = metric{us(wait), "model_us"}
	}
	return m
}

// reportLayers prints the traced pass's per-op breakdown and join outcome.
func reportLayers(out io.Writer, ts traceStats) {
	ops := map[protocol.Op]bool{}
	for _, x := range ts.exchanges {
		ops[x.op] = true
	}
	keys := make([]protocol.Op, 0, len(ops))
	for o := range ops {
		keys = append(keys, o)
	}
	slices.Sort(keys)
	fmt.Fprintf(out, "%-24s %8s %12s %12s %12s %12s\n", "traced op", "n", "dispatch_p50", "dispatch_p99", "csend_p50", "wire_p50")
	for _, o := range keys {
		var sel []exchange
		for _, x := range ts.exchanges {
			if x.op == o {
				sel = append(sel, x)
			}
		}
		d := dispatchTimes(sel, 0, true)
		fmt.Fprintf(out, "%-24s %8d %12.2f %12.2f %12.2f %12.2f\n", opName(o), len(sel),
			us(quantile(d, 0.5)), us(quantile(d, 0.99)),
			us(quantile(exchangeTimes(sel, (*exchange).clientSend), 0.5)),
			us(quantile(exchangeTimes(sel, (*exchange).wire), 0.5)))
	}
	for _, j := range ts.joins {
		fmt.Fprintf(out, "join conn %d: client %d exchanges, server %d, matched %d, in pass %d (replied %d), ok=%v\n",
			j.conn, j.client, j.server, j.matched, j.inPass, j.replied, j.ok())
	}
}
