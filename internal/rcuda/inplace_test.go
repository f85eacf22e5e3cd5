package rcuda

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// The in-place data path: over TCP the server receives a host-to-device
// payload straight into the destination region and replies to a
// device-to-host copy straight from it, and the client receives that reply
// straight into the caller's buffer. These tests pin what that path costs,
// that it fails exactly like the local runtime, and that it is invisible to
// every counter.

// embeddedConn hides every method but transport.Conn's, like a tracing
// wrapper, so transport.RecvInto takes its copying fallback.
type embeddedConn struct{ transport.Conn }

// serveWrapped serves srv on a fresh loopback listener, passing every
// accepted connection through wrap before ServeConn. The first 16 wrapped
// server connections are delivered on the returned channel in accept
// order; later ones are not, so an unread channel never stalls accepts.
func serveWrapped(t *testing.T, srv *Server, wrap func(transport.Conn) transport.Conn) (string, <-chan transport.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan transport.Conn, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conn := wrap(transport.NewTCPConn(c))
			select {
			case conns <- conn:
			default:
			}
			go func() {
				_ = srv.ServeConn(conn)
				_ = conn.Close()
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
		_ = srv.Close()
	})
	return ln.Addr().String(), conns
}

// pattern returns n bytes that differ per seed.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i>>3) ^ seed
	}
	return b
}

// totalAlloc reports the process's cumulative heap allocation.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestBulkMemcpyStagesNothing is the zero-staging regression test: over
// loopback TCP a 64 MiB copy in either direction allocates no buffer of
// its size anywhere in the process — not a receive frame, not a device
// staging buffer, not a decode target. Staging either direction once
// would add at least 64 MiB.
func TestBulkMemcpyStagesNothing(t *testing.T) {
	const size = 64 << 20
	const budget = 1 << 20
	srv := NewServer(gpu.New(gpu.Config{Clock: vclock.NewSim()}))
	addr, _ := serveWrapped(t, srv, func(c transport.Conn) transport.Conn { return c })
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ptr, err := client.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	src := pattern(size, 0x5A)
	dst := make([]byte, size)

	before := totalAlloc()
	if err := client.MemcpyToDevice(ptr, src); err != nil {
		t.Fatal(err)
	}
	if grew := totalAlloc() - before; grew >= budget {
		t.Errorf("64 MiB MemcpyToDevice allocated %d bytes, want < %d", grew, budget)
	}
	before = totalAlloc()
	if err := client.MemcpyToHost(dst, ptr); err != nil {
		t.Fatal(err)
	}
	if grew := totalAlloc() - before; grew >= budget {
		t.Errorf("64 MiB MemcpyToHost allocated %d bytes, want < %d", grew, budget)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("64 MiB round trip corrupted the data")
	}
}

// badCopies drives copies that must fail — overrunning an allocation,
// naming a freed one, naming address zero — on rt, and returns each
// call's result code plus the contents of the target allocation and its
// neighbours afterwards.
func badCopies(t *testing.T, rt cudart.Runtime) (codes []cudart.Error, after [][]byte) {
	t.Helper()
	const size = 96 << 10 // larger than the transport's read buffer
	var ptrs [3]cudart.DevicePtr
	for i := range ptrs {
		p, err := rt.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.MemcpyToDevice(p, pattern(size, byte(i+1))); err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	freed, err := rt.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Free(freed); err != nil {
		t.Fatal(err)
	}
	junk := pattern(size, 0xEE)
	overrun := ptrs[1] + size/2
	for _, err := range []error{
		rt.MemcpyToDevice(overrun, junk),
		rt.MemcpyToHost(make([]byte, size), overrun),
		rt.MemcpyToDevice(freed, junk),
		rt.MemcpyToHost(make([]byte, size), freed),
		rt.MemcpyToDevice(0, junk),
		rt.MemcpyToHost(make([]byte, size), 0),
	} {
		codes = append(codes, cudart.Code(err))
	}
	for _, p := range ptrs {
		out := make([]byte, size)
		if err := rt.MemcpyToHost(out, p); err != nil {
			t.Fatal(err)
		}
		after = append(after, out)
	}
	return codes, after
}

// TestInPlaceMemcpyFailsLikeLocal checks that a copy the in-place path
// refuses to place fails with the local runtime's code and writes nothing:
// the overrun target and both its neighbours keep their contents.
func TestInPlaceMemcpyFailsLikeLocal(t *testing.T) {
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		t.Fatal(err)
	}
	local, err := cudart.OpenLocal(gpu.New(gpu.Config{Clock: vclock.NewSim()}), mod, cudart.Preinitialized())
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	wantCodes, _ := badCopies(t, local)

	srv := NewServer(gpu.New(gpu.Config{Clock: vclock.NewSim()}))
	addr, _ := serveWrapped(t, srv, func(c transport.Conn) transport.Conn { return c })
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	codes, after := badCopies(t, client)

	for i, want := range wantCodes {
		if want == cudart.Success || codes[i] != want {
			t.Errorf("bad copy %d: remote code %v, local %v", i, codes[i], want)
		}
	}
	for i, got := range after {
		if !bytes.Equal(got, pattern(len(got), byte(i+1))) {
			t.Errorf("allocation %d changed by a failed copy", i)
		}
	}
}

// callRecord is one Observer notification.
type callRecord struct {
	op         protocol.Op
	sent, recv int
}

type callLog []callRecord

func (l *callLog) Call(op protocol.Op, sent, recv int) { *l = append(*l, callRecord{op, sent, recv}) }

// TestInPlaceAndFallbackCountIdentically runs one op sequence twice: over
// plain TCP connections, where bulk payloads land in place, and over
// connections wrapped so both ends take RecvInto's copying fallback. Every
// traffic counter, client counter and observed call size must match.
func TestInPlaceAndFallbackCountIdentically(t *testing.T) {
	type counts struct {
		client, server transport.Stats
		cstats         ClientStats
		calls          callLog
		readback       []byte
	}
	run := func(wrap func(transport.Conn) transport.Conn) counts {
		srv := NewServer(gpu.New(gpu.Config{Clock: vclock.NewSim()}))
		addr, srvConns := serveWrapped(t, srv, wrap)
		tc, err := transport.DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		conn := wrap(tc)
		var c counts
		client, err := Open(conn, moduleImage(t, calib.MM), WithObserver(&c.calls))
		if err != nil {
			t.Fatal(err)
		}
		const size = 1 << 20
		ptr, err := client.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.MemcpyToDevice(ptr, pattern(size, 3)); err != nil {
			t.Fatal(err)
		}
		c.readback = make([]byte, size)
		if err := client.MemcpyToHost(c.readback, ptr); err != nil {
			t.Fatal(err)
		}
		_ = client.MemcpyToDevice(ptr+1, pattern(size, 4)) // overrun: refused
		_ = client.MemcpyToHost(make([]byte, size), ptr+1)
		if err := client.DeviceSynchronize(); err != nil {
			t.Fatal(err)
		}
		if err := client.Free(ptr); err != nil {
			t.Fatal(err)
		}
		c.client, c.cstats = conn.Stats(), client.Stats()
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
		sc := <-srvConns
		// The server counts its connection's last frame (the finalize)
		// before its handler returns; wait for it rather than race it.
		deadline := time.Now().Add(5 * time.Second)
		for sc.Stats().MessagesRecv < c.client.MessagesSent+1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		c.server = sc.Stats()
		return c
	}
	inPlace := run(func(c transport.Conn) transport.Conn { return c })
	fallback := run(func(c transport.Conn) transport.Conn { return embeddedConn{c} })

	traffic := func(s transport.Stats) [4]int64 {
		return [4]int64{s.MessagesSent, s.MessagesRecv, s.BytesSent, s.BytesRecv}
	}
	if traffic(inPlace.client) != traffic(fallback.client) {
		t.Errorf("client traffic: in place %+v, fallback %+v", inPlace.client, fallback.client)
	}
	if traffic(inPlace.server) != traffic(fallback.server) {
		t.Errorf("server traffic: in place %+v, fallback %+v", inPlace.server, fallback.server)
	}
	if inPlace.cstats != fallback.cstats {
		t.Errorf("client stats: in place %+v, fallback %+v", inPlace.cstats, fallback.cstats)
	}
	if len(inPlace.calls) != len(fallback.calls) {
		t.Fatalf("observed %d calls in place, %d on the fallback", len(inPlace.calls), len(fallback.calls))
	}
	for i := range inPlace.calls {
		if inPlace.calls[i] != fallback.calls[i] {
			t.Errorf("call %d: in place %+v, fallback %+v", i, inPlace.calls[i], fallback.calls[i])
		}
	}
	if !bytes.Equal(inPlace.readback, fallback.readback) || !bytes.Equal(inPlace.readback, pattern(len(inPlace.readback), 3)) {
		t.Error("readbacks differ from what was written")
	}
}

// TestChaosTornBulkCopies tears an 8 MiB copy in each direction in the
// middle of its payload. A torn host-to-device copy has already written
// part of its destination on the server; a torn device-to-host reply has
// already written part of the caller's buffer. Retry on a reattached
// session must rewrite both whole, so the readback is bit-exact.
func TestChaosTornBulkCopies(t *testing.T) {
	const size = 8 << 20
	tear := faults.Decision{Kind: faults.KindTruncate, KeepBytes: size / 2}
	cases := []struct {
		name       string
		tornH2D    bool
		clientPlan *faults.Plan
		serverPlan *faults.Plan
	}{
		{
			// Client ops after open: malloc, the copy of the old contents,
			// then the torn copy's send.
			name: "h2d", tornH2D: true,
			clientPlan: faults.Script(faults.Injection{Op: opsOpenDurable + 4, Dir: faults.DirSend, Decision: tear}),
		},
		{
			// Server ops: init 0-1, hello 2-3, malloc 4-5, the copy to the
			// device 6-7, then the readback's request 8 and torn reply 9.
			name:       "d2h",
			serverPlan: faults.Script(faults.Injection{Op: 9, Dir: faults.DirSend, Decision: tear}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(gpu.New(gpu.Config{Clock: vclock.NewSim()}))
			addr, _ := serveWrapped(t, srv, func(c transport.Conn) transport.Conn {
				return transport.NewFaultyConn(c, tc.serverPlan)
			})
			dial := faultyDialer(addr, tc.clientPlan)
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			client, err := Open(conn, moduleImage(t, calib.MM),
				WithRetry(8, 200*time.Microsecond), WithReconnect(dial))
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			ptr, err := client.Malloc(size)
			if err != nil {
				t.Fatal(err)
			}
			want := pattern(size, 0x22)
			if tc.tornH2D {
				if err := client.MemcpyToDevice(ptr, pattern(size, 0x11)); err != nil {
					t.Fatal(err)
				}
			}
			if err := client.MemcpyToDevice(ptr, want); err != nil {
				t.Fatalf("copy to device: %v", err)
			}
			got := pattern(size, 0x33)
			if err := client.MemcpyToHost(got, ptr); err != nil {
				t.Fatalf("readback: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("readback after a torn copy is not bit-exact")
			}
			injected := tc.clientPlan.Injected() + tc.serverPlan.Injected()
			if cs := client.Stats(); injected != 1 || cs.Recovered != 1 || cs.Reconnects == 0 {
				t.Fatalf("want one injected fault recovered by reconnect: injected %d, %+v", injected, cs)
			}
		})
	}
}
