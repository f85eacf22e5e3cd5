package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// op names one runtime API call the workloads issue.
type op int

const (
	opMalloc op = iota
	opFree
	opH2D
	opD2H
	opLaunch
	opSync
	opMemset
	opProps
	opH2DAsync
	opLaunchAsync
	opEventRecord
	opEventSync
	opEventQuery
	numOps
)

var opNames = [numOps]string{
	"malloc", "free", "memcpy_h2d", "memcpy_d2h", "launch", "sync", "memset",
	"props", "memcpy_h2d_async", "launch_async", "event_record", "event_sync", "event_query",
}

func (o op) String() string { return opNames[o] }

// failedLatency stands in for the latency of a failed call or request, so a
// failure misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// errMismatch marks a readback that failed verification.
var errMismatch = errors.New("readback mismatch")

// callSpan is one API call's interval, kept only in traced passes.
type callSpan struct {
	start, end time.Time
	op         op
}

// recorder collects one load goroutine's measurements. Samples go to a
// sampleLog outside the Go heap, so recording neither allocates nor moves
// the heap the run measures; collect turns them into the slices below once
// the pass is over.
type recorder struct {
	log    *sampleLog
	calls  int
	failed int
	// start and win bin samples into windows of the measured interval by
	// when they end; win 0 puts everything in window 0.
	start time.Time
	win   time.Duration
	mms   [windows]int
	// excl is harness time inside the loop (verification, raw-loopback
	// transfers); rates divide by the loop's wall time minus excl.
	excl   [windows]time.Duration
	reqEnd time.Time
	spans  []callSpan // nil unless tracing
	trace  bool
	// raw, when set, carries the same-size loopback transfers that give
	// the transfer ceiling; nil in the local replay.
	raw      *rawPair
	firstErr error
	// corrupt flips one byte of the next readback before it is verified;
	// the self-test uses it to prove verification bites.
	corrupt bool

	// Filled by collect: every sample, and the samples of each window.
	lat     [numOps][]time.Duration
	bw      [2][]float64 // per-call GB/s of synchronous H2D and D2H copies
	reqs    []time.Duration
	rawGBps []float64
	byWin   [windows]windowSamples
}

// windows is how many equal slices of the measured interval the end-to-end
// metrics are computed on; each reports the median over the slices, so a
// burst of interference on a shared machine skews one slice, not the run.
const windows = 5

// windowSamples are one window's call and request latencies and copy
// bandwidths.
type windowSamples struct {
	calls, reqs []time.Duration
	bw          [2][]float64
}

// window returns the window an instant falls in.
func (r *recorder) window(t time.Time) int {
	if r.win <= 0 {
		return 0
	}
	return max(0, min(windows-1, int(t.Sub(r.start)/r.win)))
}

// matrices counts k matrices the workload has processed.
func (r *recorder) matrices(k int) { r.mms[r.window(time.Now())] += k }

// sum totals a per-window counter.
func sum[T int | time.Duration](xs [windows]T) T {
	var t T
	for _, x := range xs {
		t += x
	}
	return t
}

// Sample kinds beyond the call ops.
const (
	kindReq = numOps + iota
	kindRaw
)

// newRecorder reserves room for d of samples at a rate no run reaches.
func newRecorder(d time.Duration, raw *rawPair, trace, corrupt bool) (*recorder, error) {
	const maxRate = 400_000 // samples per second
	log, err := newSampleLog(int(d.Seconds()*maxRate) + 1<<16)
	if err != nil {
		return nil, err
	}
	return &recorder{log: log, raw: raw, trace: trace, corrupt: corrupt}, nil
}

// end records a call that started at t0.
func (r *recorder) end(o op, t0 time.Time, err error) error {
	return r.copied(o, t0, 0, err)
}

// copied records a call that moved n bytes and started at t0.
func (r *recorder) copied(o op, t0 time.Time, n int, err error) error {
	t1 := time.Now()
	if r.trace {
		r.spans = append(r.spans, callSpan{t0, t1, o})
	}
	r.calls++
	if err != nil {
		r.failed++
		r.log.add(o, r.window(t1), failedLatency, n)
		return r.fail(fmt.Errorf("%v: %w", o, err))
	}
	r.log.add(o, r.window(t1), t1.Sub(t0), n)
	return nil
}

// done marks the end of the current request's timed work; what the step
// does after it (verification, ceiling transfers) is harness time.
func (r *recorder) done() { r.reqEnd = time.Now() }

// check verifies a readback. got is tampered with first when the recorder
// is set to corrupt.
func (r *recorder) check(got []byte, equal func([]byte) bool, what string) error {
	if r.corrupt && len(got) > 0 {
		got[len(got)/2] ^= 0x5a
		r.corrupt = false
	}
	if equal(got) {
		return nil
	}
	r.failed++
	return r.fail(fmt.Errorf("%s: %w", what, errMismatch))
}

func (r *recorder) fail(err error) error {
	if r.firstErr == nil {
		r.firstErr = err
	}
	return err
}

// ceiling sends data once over the raw loopback pair, when the recorder
// carries one.
func (r *recorder) ceiling(data []byte) error {
	if r.raw == nil {
		return nil
	}
	d, err := r.raw.transfer(data)
	if err != nil {
		r.failed++
		return r.fail(fmt.Errorf("raw loopback: %w", err))
	}
	r.log.add(kindRaw, 0, d, len(data))
	return nil
}

// collect moves the logged samples into the recorder's slices and
// releases the log.
func (r *recorder) collect() error {
	if r.log == nil {
		return nil
	}
	var err error
	if r.log.full {
		err = errors.New("sample log full")
	}
	r.log.each(func(k op, w int, d time.Duration, n int) {
		gbps := float64(n) / d.Seconds() / 1e9
		ws := &r.byWin[w]
		switch {
		case k == kindReq:
			r.reqs = append(r.reqs, d)
			ws.reqs = append(ws.reqs, d)
		case k == kindRaw:
			r.rawGBps = append(r.rawGBps, gbps)
		default:
			r.lat[k] = append(r.lat[k], d)
			ws.calls = append(ws.calls, d)
			if (k == opH2D || k == opD2H) && n > 0 && d != failedLatency {
				r.bw[k-opH2D] = append(r.bw[k-opH2D], gbps)
				ws.bw[k-opH2D] = append(ws.bw[k-opH2D], gbps)
			}
		}
	})
	r.log, err = nil, errors.Join(err, r.log.close())
	return err
}

// sampleLog is an append-only array of 16-byte records in an anonymous
// memory mapping: off the Go heap, so the garbage collector neither scans
// it nor paces itself by it, and only the pages written become resident.
type sampleLog struct {
	mem  []byte
	n    int
	full bool
}

const sampleSize = 16

func newSampleLog(max int) (*sampleLog, error) {
	mem, err := syscall.Mmap(-1, 0, max*sampleSize, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("sample log: %w", err)
	}
	return &sampleLog{mem: mem}, nil
}

// add logs a sample of kind k in window w: a duration and a byte count.
func (l *sampleLog) add(k op, w int, d time.Duration, n int) {
	off := l.n * sampleSize
	if off+sampleSize > len(l.mem) {
		l.full = true
		return
	}
	binary.LittleEndian.PutUint64(l.mem[off:], uint64(d))
	binary.LittleEndian.PutUint32(l.mem[off+8:], uint32(n))
	binary.LittleEndian.PutUint16(l.mem[off+12:], uint16(k))
	binary.LittleEndian.PutUint16(l.mem[off+14:], uint16(w))
	l.n++
}

func (l *sampleLog) each(f func(k op, w int, d time.Duration, n int)) {
	for i := 0; i < l.n; i++ {
		b := l.mem[i*sampleSize:]
		f(op(binary.LittleEndian.Uint16(b[12:])), int(binary.LittleEndian.Uint16(b[14:])),
			time.Duration(binary.LittleEndian.Uint64(b)), int(binary.LittleEndian.Uint32(b[8:])))
	}
}

func (l *sampleLog) close() error { return syscall.Munmap(l.mem) }

// allLatencies pools every call latency of the given recorders.
func allLatencies(recs []*recorder) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		for _, l := range r.lat {
			out = append(out, l...)
		}
	}
	return out
}

// opLatencies pools one op's latencies across recorders.
func opLatencies(recs []*recorder, o op) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		out = append(out, r.lat[o]...)
	}
	return out
}

// quantile returns the q-quantile of ds (nearest rank); 0 for no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median returns the median of xs; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler tracks the peak Go heap (bytes in live and not yet swept
// objects) by polling runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

// heapObjects reads the bytes in heap objects now.
func heapObjects(sample []metrics.Sample) uint64 {
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func heapSample() []metrics.Sample {
	return []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := heapSample()
	read := func() { h.peak = max(h.peak, heapObjects(sample)) }
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// rawPair is a plain loopback TCP connection with an echo-ack peer: the
// transfer ceiling the middleware is compared against. One transfer sends
// an 8-byte length and that many bytes; the peer reads them all and answers
// with one byte, the same shape as a synchronous host-to-device copy.
type rawPair struct {
	ln   net.Listener
	c    net.Conn
	done chan error
	hdr  [8]byte
	ack  [1]byte
	vecs [2][]byte
	vec  net.Buffers
}

func newRawPair() (*rawPair, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &rawPair{ln: ln, done: make(chan error, 1)}
	go func() { p.done <- serveRaw(ln) }()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-p.done
		return nil, err
	}
	p.c = c
	return p, nil
}

// serveRaw accepts one connection and acknowledges each transfer on it.
func serveRaw(ln net.Listener) error {
	c, err := ln.Accept()
	ln.Close()
	if err != nil {
		return err
	}
	defer c.Close()
	var hdr [8]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		n := int(binary.LittleEndian.Uint64(hdr[:]))
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		if _, err := io.ReadFull(c, buf[:n]); err != nil {
			return err
		}
		if _, err := c.Write(hdr[:1]); err != nil {
			return err
		}
	}
}

// transfer sends data and waits for the acknowledgement. The header,
// acknowledgement and vector live in p so a transfer allocates nothing and
// stays out of the allocation counts the run reports.
func (p *rawPair) transfer(data []byte) (time.Duration, error) {
	binary.LittleEndian.PutUint64(p.hdr[:], uint64(len(data)))
	// WriteTo consumes the vector, so it is rebuilt over the fixed array.
	p.vecs = [2][]byte{p.hdr[:], data}
	p.vec = p.vecs[:]
	t0 := time.Now()
	if _, err := p.vec.WriteTo(p.c); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(p.c, p.ack[:]); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// close shuts the pair down and waits for the peer goroutine.
func (p *rawPair) close() error {
	p.c.Close()
	return <-p.done
}
