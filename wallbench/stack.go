package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/protocol"
	"rcuda/internal/rcuda"
	"rcuda/internal/sched"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// stack is one daemon and its client sessions in this process: each
// rcuda.Client talks over loopback TCP to an rcuda.Server whose device runs
// on a simulated clock, so modeled PCIe and kernel time never turns into a
// sleep and wall time measures only the middleware and the host work the
// kernels really do.
type stack struct {
	dev *gpu.Device
	srv *rcuda.Server
	ln  net.Listener

	accepted chan struct{}
	handlers sync.WaitGroup

	mu       sync.Mutex
	srvConns []transport.Conn // in accept order, which is dial order
	serveErr error

	cliConns []transport.Conn
	clients  []*rcuda.Client
	sessions []session
	tracer   *tracer // nil in untraced stacks
}

// moduleImage is the GPU module every session uploads at Open.
func moduleImage() ([]byte, *gpu.Module, error) {
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		return nil, nil, err
	}
	img, err := mod.Binary()
	return img, mod, err
}

// newStack starts a daemon, dials one connection per tenant, opens each
// session and prepares its resident device data. tr wraps every
// connection, client and server side, when non-nil.
func newStack(w *workload, tenants []*tenant, tr *tracer) (*stack, error) {
	img, _, err := moduleImage()
	if err != nil {
		return nil, err
	}
	st := &stack{dev: gpu.New(gpu.Config{Clock: vclock.NewSim()}), tracer: tr, accepted: make(chan struct{})}
	var opts []rcuda.ServerOption
	if w.sched {
		opts = append(opts, rcuda.WithScheduler(sched.WFQ))
	}
	st.srv = rcuda.NewServer(st.dev, opts...)
	if st.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go st.accept()
	for _, t := range tenants {
		tc, err := transport.DialTCP(st.ln.Addr().String())
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		conn := tr.wrap(tc, false)
		st.cliConns = append(st.cliConns, conn)
		c, err := rcuda.Open(conn, img, t.opts...)
		if err != nil {
			conn.Close()
			return nil, errors.Join(fmt.Errorf("open %s: %w", t.name, err), st.close())
		}
		st.clients = append(st.clients, c)
		s, err := t.open(c)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("prepare %s: %w", t.name, err), st.close())
		}
		st.sessions = append(st.sessions, s)
	}
	return st, nil
}

// accept serves every connection on the stack's listener until it closes.
func (st *stack) accept() {
	defer close(st.accepted)
	for {
		c, err := st.ln.Accept()
		if err != nil {
			return
		}
		conn := st.tracer.wrap(transport.NewTCPConn(c), true)
		st.mu.Lock()
		st.srvConns = append(st.srvConns, conn)
		st.mu.Unlock()
		st.handlers.Add(1)
		go func() {
			defer st.handlers.Done()
			if err := st.srv.ServeConn(conn); err != nil {
				st.mu.Lock()
				st.serveErr = errors.Join(st.serveErr, err)
				st.mu.Unlock()
			}
		}()
	}
}

// close finalizes every session, stops the daemon and waits for all of its
// goroutines. It reports a serve error or device memory left allocated.
func (st *stack) close() error {
	var errs []error
	for _, c := range st.clients {
		errs = append(errs, c.Close())
	}
	errs = append(errs, st.ln.Close())
	<-st.accepted
	st.handlers.Wait()
	errs = append(errs, st.srv.Close())
	st.mu.Lock()
	errs = append(errs, st.serveErr)
	st.mu.Unlock()
	if n := st.dev.MemoryInUse(); n != 0 {
		errs = append(errs, fmt.Errorf("%d bytes left allocated on the device", n))
	}
	return errors.Join(errs...)
}

// finish runs every session's end-of-run checks and frees its resident
// data, then closes the stack.
func (st *stack) finish(recs []*recorder) error {
	var errs []error
	for i, s := range st.sessions {
		errs = append(errs, s.finish(recs[i]))
	}
	return errors.Join(append(errs, st.close())...)
}

// msgSpan is one Send or Recv on a traced connection.
type msgSpan struct {
	start, end time.Time
	send       bool
	op         protocol.Op
}

// tracer owns the traced connections of one stack. Spans stay in memory;
// they are read only after every connection's goroutines have finished.
type tracer struct {
	mu      sync.Mutex
	conns   []*tracedConn
	capture atomic.Bool // sample payloads for the codec replay
	samples map[sampleKey][][]byte
}

// sampleKey names one kind of captured payload.
type sampleKey struct {
	resp bool
	op   protocol.Op
}

// Captured payloads per kind: enough to average the codec over, few
// enough that 64 MiB payloads stay cheap to keep.
const (
	maxSamples     = 4
	maxLargeSample = 1
	largeSample    = 1 << 20
)

func newTracer() *tracer { return &tracer{samples: make(map[sampleKey][][]byte)} }

// wrap returns c itself when the tracer is nil.
func (tr *tracer) wrap(c transport.Conn, server bool) transport.Conn {
	if tr == nil {
		return c
	}
	tc := &tracedConn{Conn: c, tr: tr, server: server}
	tr.mu.Lock()
	tr.conns = append(tr.conns, tc)
	tr.mu.Unlock()
	return tc
}

// keep stores a copy of payload p as a codec sample if its kind still has
// room.
func (tr *tracer) keep(k sampleKey, p []byte) {
	if !tr.capture.Load() {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	have := tr.samples[k]
	limit := maxSamples
	if len(p) > largeSample {
		limit = maxLargeSample
	}
	if len(have) < limit {
		tr.samples[k] = append(have, append([]byte(nil), p...))
	}
}

// tracedConn times Send and Recv of the connection it wraps from outside.
// Like the connections it wraps, it is used by one goroutine per direction
// of a synchronous dialogue, so its span list needs no lock.
type tracedConn struct {
	transport.Conn
	tr     *tracer
	server bool
	spans  []msgSpan
	lastOp protocol.Op // the op of the exchange in flight
	recvs  int
}

// Send implements transport.Conn.
func (c *tracedConn) Send(m protocol.Message) error {
	if !c.server {
		c.lastOp = protocol.OpInit
		if r, ok := m.(protocol.Request); ok {
			c.lastOp = r.Op()
		}
	}
	t0 := time.Now()
	err := c.Conn.Send(m)
	c.spans = append(c.spans, msgSpan{start: t0, end: time.Now(), send: true, op: c.lastOp})
	return err
}

// Recv implements transport.Conn.
func (c *tracedConn) Recv() ([]byte, error) {
	t0 := time.Now()
	p, err := c.Conn.Recv()
	t1 := time.Now()
	if err != nil {
		return p, err
	}
	if c.server {
		// The opening message is positional and carries no op code.
		c.lastOp = protocol.OpInit
		if c.recvs > 0 && len(p) >= 4 {
			c.lastOp = protocol.Op(binary.LittleEndian.Uint32(p))
		}
	}
	c.recvs++
	c.spans = append(c.spans, msgSpan{start: t0, end: t1, op: c.lastOp})
	c.tr.keep(sampleKey{resp: !c.server, op: c.lastOp}, p)
	return p, nil
}
