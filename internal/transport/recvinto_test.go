package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rcuda/internal/faults"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/vclock"
)

// embeddedConn hides every method but Conn's, the way a tracing wrapper
// that embeds Conn does, so RecvInto must take its copying fallback.
type embeddedConn struct{ Conn }

// placeRecorder's place lands any bulk segment of a frame with a
// MemcpyToDeviceHeadSize head and a 4-byte tail in a fresh slice,
// recording what it was offered.
type placeRecorder struct {
	calls int
	n     int
	head  []byte
	dst   []byte
}

func (p *placeRecorder) place(n int, head []byte) []byte {
	p.calls++
	p.n = n
	p.head = append([]byte(nil), head...)
	p.dst = make([]byte, n-protocol.MemcpyToDeviceHeadSize-4)
	return p.dst
}

// bulkPattern is a recognizable payload longer than bufio's 64 KiB buffer,
// so the in-place read drains the buffer and then reads the socket.
func bulkPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// rawFrame hand-builds a frame of head, bulk and a 4-byte tail.
func rawFrame(head, bulk []byte, tail uint32) []byte {
	n := len(head) + len(bulk) + 4
	f := binary.LittleEndian.AppendUint32(nil, uint32(n))
	f = append(f, head...)
	f = append(f, bulk...)
	return binary.LittleEndian.AppendUint32(f, tail)
}

// TestRecvIntoPlacesBulk checks the placement contract on every receive
// path: native TCP, FaultyConn over TCP, and the fallback taken by an
// embedding wrapper and by the simulated pipe. Each must hand the same
// head to place, land the same bulk, return head+tail as the frame, and
// count the frame identically.
func TestRecvIntoPlacesBulk(t *testing.T) {
	head := bytes.Repeat([]byte{0xAB}, protocol.MemcpyToDeviceHeadSize)
	bulk := bulkPattern(100 << 10)
	msg := &protocol.MemcpyToHostResponse{Data: append(append([]byte(nil), head...), bulk...), Err: 0xC0DE}
	pair := func(name string) (send, recv Conn) {
		switch name {
		case "pipe":
			a, b := Pipe(netsim.IB40G(), vclock.NewSim(), nil)
			t.Cleanup(func() { _ = a.Close() })
			return a, b
		case "pipe-faulty":
			a, b := Pipe(netsim.IB40G(), vclock.NewSim(), nil)
			t.Cleanup(func() { _ = a.Close() })
			return a, NewFaultyConn(b, nil)
		}
		a, b := tcpPair(t)
		switch name {
		case "tcp-faulty":
			return a, NewFaultyConn(b, nil)
		case "tcp-embedded":
			return a, embeddedConn{b}
		}
		return a, b
	}
	for _, name := range []string{"tcp", "tcp-faulty", "tcp-embedded", "pipe", "pipe-faulty"} {
		t.Run(name, func(t *testing.T) {
			send, recv := pair(name)
			go func() { _ = send.Send(msg) }()
			var rec placeRecorder
			frame, got, err := RecvInto(recv, protocol.MemcpyToDeviceHeadSize, 4, rec.place)
			if err != nil {
				t.Fatal(err)
			}
			if rec.calls != 1 || rec.n != msg.WireSize() || !bytes.Equal(rec.head, head) {
				t.Fatalf("place saw calls=%d n=%d head=%x", rec.calls, rec.n, rec.head)
			}
			if !bytes.Equal(got, bulk) || &got[0] != &rec.dst[0] {
				t.Fatal("bulk did not land in the placed slice")
			}
			want := binary.LittleEndian.AppendUint32(append([]byte(nil), head...), 0xC0DE)
			if !bytes.Equal(frame, want) {
				t.Fatalf("frame = %x, want head+tail %x", frame, want)
			}
			if st := recv.Stats(); st.MessagesRecv != 1 || st.BytesRecv != int64(msg.WireSize()) {
				t.Fatalf("stats %+v, want 1 message of %d bytes", st, msg.WireSize())
			}
		})
	}
}

// TestRecvIntoDeclinedAndShortFrames checks that a nil place result, a nil
// place function, and a frame too short to hold head and tail all return
// the frame whole — the last without consulting place at all.
func TestRecvIntoDeclinedAndShortFrames(t *testing.T) {
	a, b := tcpPair(t)
	b.SetOpTimeout(5 * time.Second) // a receiver waiting on a short frame's head fails instead of hanging
	long := &protocol.MemcpyToDeviceRequest{Dst: 3, Data: bulkPattern(300)}
	short := &protocol.SyncResponse{Err: 9}
	calls := 0
	decline := func(int, []byte) []byte { calls++; return nil }
	for _, tc := range []struct {
		msg   protocol.Message
		place func(int, []byte) []byte
		calls int
	}{
		{long, decline, 1},
		{long, nil, 1},
		{short, decline, 1},
	} {
		if err := a.Send(tc.msg); err != nil {
			t.Fatal(err)
		}
		frame, bulk, err := RecvInto(b, protocol.MemcpyToDeviceHeadSize, 0, tc.place)
		if err != nil {
			t.Fatal(err)
		}
		if bulk != nil || len(frame) != tc.msg.WireSize() || calls != tc.calls {
			t.Fatalf("%T: frame %d bytes, bulk %v, place calls %d", tc.msg, len(frame), bulk != nil, calls)
		}
	}
}

// TestRecvIntoRejectsMisplacedSlice checks that a place result of the
// wrong length is an error, not a short or overrunning read.
func TestRecvIntoRejectsMisplacedSlice(t *testing.T) {
	for _, name := range []string{"native", "fallback"} {
		t.Run(name, func(t *testing.T) {
			a, b := tcpPair(t)
			var recv Conn = b
			if name == "fallback" {
				recv = embeddedConn{b}
			}
			if err := a.Send(&protocol.MemcpyToDeviceRequest{Data: make([]byte, 64)}); err != nil {
				t.Fatal(err)
			}
			_, _, err := RecvInto(recv, protocol.MemcpyToDeviceHeadSize, 0, func(int, []byte) []byte { return make([]byte, 63) })
			if err == nil || !strings.Contains(err.Error(), "placed 63 bytes for a 64-byte bulk segment") {
				t.Fatalf("got %v", err)
			}
		})
	}
}

// TestRecvIntoTruncationAtEachBoundary cuts a head+bulk+tail frame inside
// each of its four parts and checks the error class and the byte count it
// reports.
func TestRecvIntoTruncationAtEachBoundary(t *testing.T) {
	head := make([]byte, protocol.MemcpyToDeviceHeadSize)
	bulk := bulkPattern(1000)
	frame := rawFrame(head, bulk, 0)
	n := len(frame) - frameHeaderSize
	cases := []struct {
		name string
		keep int
		want string
	}{
		{"length-prefix", 2, "2 of 4 header bytes"},
		{"head", frameHeaderSize + 10, fmt.Sprintf("10 of %d payload bytes", n)},
		{"bulk", frameHeaderSize + len(head) + 500, fmt.Sprintf("%d of %d payload bytes", len(head)+500, n)},
		{"tail", len(frame) - 2, fmt.Sprintf("%d of %d payload bytes", n-2, n)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tcpPair(t)
			if _, err := a.c.Write(frame[:tc.keep]); err != nil {
				t.Fatal(err)
			}
			_ = a.Close()
			var rec placeRecorder
			_, _, err := RecvInto(b, len(head), 4, rec.place)
			if !errors.Is(err, ErrTruncatedFrame) {
				t.Fatalf("got %v, want ErrTruncatedFrame", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %q, want it to report %q", err, tc.want)
			}
			if tc.name == "bulk" && !bytes.Equal(rec.dst[:500], bulk[:500]) {
				t.Fatal("bytes before the tear did not land in place")
			}
		})
	}
}

// TestRecvIntoEnforcesFrameLimitBeforePlace checks that an oversize length
// prefix is refused before place can size anything from it.
func TestRecvIntoEnforcesFrameLimitBeforePlace(t *testing.T) {
	a, b := tcpPair(t)
	if _, err := a.c.Write(binary.LittleEndian.AppendUint32(nil, protocol.MaxFrameSize+1)); err != nil {
		t.Fatal(err)
	}
	called := false
	_, _, err := RecvInto(b, 0, 0, func(int, []byte) []byte { called = true; return nil })
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("got %v, want a frame-limit error", err)
	}
	if called {
		t.Fatal("place ran on an oversize frame")
	}
}

// TestRecvIntoShortFrameDoesNotWaitForHead is the regression test for a
// hang: a complete 4-byte frame followed by silence must be returned at
// once, not held while the receiver waits for a 20-byte head that the
// frame never promised.
func TestRecvIntoShortFrameDoesNotWaitForHead(t *testing.T) {
	a, b := tcpPair(t)
	if err := a.Send(&protocol.SyncResponse{Err: 5}); err != nil {
		t.Fatal(err)
	}
	type result struct {
		frame []byte
		err   error
	}
	done := make(chan result, 1)
	go func() {
		frame, _, err := RecvInto(b, protocol.MemcpyToDeviceHeadSize, 0, func(int, []byte) []byte {
			t.Error("place consulted for a frame shorter than its head")
			return nil
		})
		done <- result{append([]byte(nil), frame...), err}
	}()
	select {
	case r := <-done:
		if r.err != nil || !bytes.Equal(r.frame, []byte{5, 0, 0, 0}) {
			t.Fatalf("got %x, %v", r.frame, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvInto blocked on a complete 4-byte frame")
	}
}

// TestFaultyConnRecvIntoAppliesFaultFirst checks that FaultyConn consults
// its plan once per RecvInto, before place can run, and forwards cleanly
// otherwise.
func TestFaultyConnRecvIntoAppliesFaultFirst(t *testing.T) {
	a, b := tcpPair(t)
	fc := NewFaultyConn(b, faults.Script(
		faults.Injection{Op: 1, Dir: faults.DirRecv, Decision: faults.Decision{Kind: faults.KindTruncate}},
	))
	msg := &protocol.MemcpyToHostResponse{Data: bulkPattern(64)}
	for i := 0; i < 2; i++ {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	var rec placeRecorder
	if _, bulk, err := RecvInto(fc, protocol.MemcpyToDeviceHeadSize, 4, rec.place); err != nil || bulk == nil {
		t.Fatalf("clean op 0: bulk %v, %v", bulk != nil, err)
	}
	_, _, err := RecvInto(fc, protocol.MemcpyToDeviceHeadSize, 4, rec.place)
	if !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("op 1: got %v, want ErrTruncatedFrame", err)
	}
	if rec.calls != 1 {
		t.Fatalf("place ran %d times, want only for the clean frame", rec.calls)
	}
	if st := fc.Stats(); st.FaultsInjected != 1 || st.MessagesRecv != 1 {
		t.Fatalf("stats %+v", st)
	}
}
