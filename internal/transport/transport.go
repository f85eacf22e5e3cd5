// Package transport carries rCUDA protocol messages between client and
// server. Two implementations exist:
//
//   - TCP: real sockets via net, with Nagle's algorithm disabled exactly as
//     the paper does ("we disabled the TCP-layer congestion control
//     algorithm ... to avoid unnecessary delays introduced by ... Nagle's
//     algorithm"). Used by the rcudad daemon and the integration tests.
//
//   - Pipe: an in-process connection whose sends advance a simulation clock
//     by the modeled wire time of the chosen interconnect, turning a full
//     client/server execution into a deterministic discrete-event run over
//     any of the paper's seven networks.
//
// Both carry the length-prefixed frames of package protocol; the simulated
// wire charges only the Table I payload bytes (framing overhead is part of
// the measured latency curves the link models reproduce).
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/vclock"
)

// Conn is a reliable, message-oriented duplex connection.
type Conn interface {
	// Send transmits one protocol message.
	Send(m protocol.Message) error
	// Recv blocks for the next incoming message payload. It returns
	// io.EOF after the peer closes. The returned slice may reuse pooled
	// storage and is only valid until the next Recv on this connection;
	// callers that keep payload bytes longer must copy them out.
	Recv() ([]byte, error)
	// Close releases the connection. Safe to call more than once.
	Close() error
	// Stats reports cumulative traffic counters.
	Stats() Stats
}

// RecvInto receives the next frame like c.Recv, but lets the caller name
// the memory a frame's bulk segment lands in. A frame of n payload bytes is
// laid out as headLen head bytes, a bulk segment, and tailLen tail bytes.
// For a frame of at least headLen+tailLen bytes, RecvInto calls place with
// n and the head (valid only during the call). place returns nil to receive
// the frame whole, or a slice of exactly n-headLen-tailLen bytes; the bulk
// segment is then written there and returned as bulk, and frame holds only
// the head followed by the tail. A nil place receives every frame whole.
// frame follows the Recv lifetime contract. headLen must be small: a TCP
// connection peeks the head from its 64 KiB read buffer.
//
// A TCPConn, bare or under a FaultyConn, reads the bulk segment from the
// socket straight into the placed slice, after checking the frame against
// protocol.MaxFrameSize. Every other Conn — wrappers that embed Conn
// included — receives the frame whole and copies the bulk into the placed
// slice, so callers keep a single code path. A receive that fails after
// place accepted may have written any prefix of the placed slice.
func RecvInto(c Conn, headLen, tailLen int, place func(n int, head []byte) []byte) (frame, bulk []byte, err error) {
	if place == nil {
		p, err := c.Recv()
		return p, nil, err
	}
	// A type switch rather than an interface: escape analysis can see
	// through these calls, so a place closure stays on the caller's stack.
	switch c := c.(type) {
	case *TCPConn:
		return c.recvInto(headLen, tailLen, place)
	case *FaultyConn:
		return c.recvInto(headLen, tailLen, place)
	}
	p, err := c.Recv()
	if err != nil || len(p) < headLen+tailLen {
		return p, nil, err
	}
	if bulk = place(len(p), p[:headLen]); bulk == nil {
		return p, nil, nil
	}
	if err := checkPlaced(bulk, len(p), headLen, tailLen); err != nil {
		return nil, nil, err
	}
	copy(bulk, p[headLen:len(p)-tailLen])
	copy(p[headLen:], p[len(p)-tailLen:])
	return p[:headLen+tailLen], bulk, nil
}

// checkPlaced rejects a placed slice that cannot hold the frame's bulk.
func checkPlaced(bulk []byte, n, headLen, tailLen int) error {
	if want := n - headLen - tailLen; len(bulk) != want {
		return fmt.Errorf("transport: placed %d bytes for a %d-byte bulk segment", len(bulk), want)
	}
	return nil
}

// TimedReceiver is implemented by connections that can report when each
// message arrived on the connection's clock. The chunked-memcpy server
// books PCIe pushes at the chunk's arrival instant so network and PCIe
// stages overlap deterministically on the simulated clock.
type TimedReceiver interface {
	// RecvTimed is Recv plus the message's arrival instant.
	RecvTimed() ([]byte, time.Duration, error)
}

// DeadlineCapable is implemented by connections whose individual Send and
// Recv operations can be bounded in time. The rCUDA server's request
// watchdog arms this so a peer that stalls mid-frame surfaces as
// os.ErrDeadlineExceeded instead of pinning a handler goroutine forever.
type DeadlineCapable interface {
	// SetOpTimeout bounds every subsequent Send and Recv individually;
	// zero disables the bound.
	SetOpTimeout(d time.Duration)
}

// ScheduledSender is implemented by connections that can hold a message
// until an instant on the connection's clock. The chunked-memcpy server
// streams device-to-host chunks at their modeled PCIe-completion times.
type ScheduledSender interface {
	// SendAt advances the connection's clock to notBefore (never backwards)
	// and then sends as usual.
	SendAt(m protocol.Message, notBefore time.Duration) error
}

// SendStamper is implemented by connections whose sends complete at a
// modeled instant on a clock they share with their peer. Once a message is
// delivered the peer may advance that clock itself, so reading the clock
// after Send returns can observe the peer's next move; the stamp cannot.
// The rCUDA server ends a request's busy interval at it.
type SendStamper interface {
	// LastSendDone returns the instant the latest send's transfer
	// completed.
	LastSendDone() time.Duration
}

// Stats counts a connection's traffic in Table I payload bytes, plus the
// frame-buffer pool's effectiveness on this connection.
type Stats struct {
	MessagesSent int64
	MessagesRecv int64
	BytesSent    int64
	BytesRecv    int64
	// PoolHits and PoolMisses count frame-buffer requests served from the
	// pool versus freshly allocated (sends and receives combined).
	PoolHits   int64
	PoolMisses int64
	// FaultsInjected counts deliberate faults a FaultyConn applied to this
	// connection; always zero on a plain connection.
	FaultsInjected int64
}

// counters is embedded by implementations; all fields are atomics.
type counters struct {
	msgsSent, msgsRecv   atomic.Int64
	bytesSent, bytesRecv atomic.Int64
	poolHits, poolMisses atomic.Int64
}

func (c *counters) onSend(n int) {
	c.msgsSent.Add(1)
	c.bytesSent.Add(int64(n))
}

func (c *counters) onRecv(n int) {
	c.msgsRecv.Add(1)
	c.bytesRecv.Add(int64(n))
}

func (c *counters) onPool(hit bool) {
	if hit {
		c.poolHits.Add(1)
	} else {
		c.poolMisses.Add(1)
	}
}

func (c *counters) Stats() Stats {
	return Stats{
		MessagesSent: c.msgsSent.Load(),
		MessagesRecv: c.msgsRecv.Load(),
		BytesSent:    c.bytesSent.Load(),
		BytesRecv:    c.bytesRecv.Load(),
		PoolHits:     c.poolHits.Load(),
		PoolMisses:   c.poolMisses.Load(),
	}
}

// ErrTruncatedFrame reports a frame that ended mid-flight: the peer (or an
// injected fault) tore the connection down after the length prefix promised
// more bytes than ever arrived. It wraps io.ErrUnexpectedEOF, so existing
// errors.Is checks against that sentinel keep working, while retry logic
// can classify the loss precisely.
var ErrTruncatedFrame = fmt.Errorf("transport: truncated frame: %w", io.ErrUnexpectedEOF)

// isStreamEnd reports an EOF-like read failure (the only errors ReadFull
// and Peek can return when the stream simply stops short).
func isStreamEnd(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// --- TCP ---------------------------------------------------------------------

// frameHeaderSize mirrors the protocol package's length prefix.
const frameHeaderSize = 4

// TCPConn is a Conn over a real socket. Like the protocol it carries, it
// is half-duplex per direction: one goroutine sending and one receiving.
type TCPConn struct {
	counters
	c         net.Conn
	br        *bufio.Reader
	opTimeout atomic.Int64 // nanoseconds; 0 disables deadlines

	fw       protocol.FrameWriter // send-side framing state, reused across Sends
	lastRecv []byte               // previous Recv's pooled payload, recycled on the next Recv
}

var (
	_ Conn            = (*TCPConn)(nil)
	_ DeadlineCapable = (*TCPConn)(nil)
)

// DialTCP connects to an rCUDA server, disabling Nagle's algorithm.
func DialTCP(addr string) (*TCPConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCPConn(c), nil
}

// NewTCPConn wraps an established socket (e.g. one accepted by the server
// daemon), disabling Nagle's algorithm when the socket is TCP.
func NewTCPConn(c net.Conn) *TCPConn {
	if tc, ok := c.(*net.TCPConn); ok {
		// Explicitly control the instant a frame is sent out, as the
		// paper's middleware does. (This is also Go's default, but the
		// middleware must not depend on it.)
		_ = tc.SetNoDelay(true)
	}
	return &TCPConn{c: c, br: bufio.NewReaderSize(c, 1<<16)}
}

// SetOpTimeout bounds every subsequent Send and Recv individually; a hung
// peer then surfaces as a deadline error instead of blocking the
// application forever. Zero (the default) disables deadlines. Safe to call
// concurrently with in-flight operations; it affects operations started
// afterwards.
func (t *TCPConn) SetOpTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.opTimeout.Store(int64(d))
}

// armDeadline applies the per-op deadline via the given setter.
func (t *TCPConn) armDeadline(set func(time.Time) error) error {
	d := time.Duration(t.opTimeout.Load())
	if d == 0 {
		return set(time.Time{})
	}
	return set(time.Now().Add(d))
}

// Send implements Conn. Segmented messages (bulk memcpy payloads) are
// gathered with a single vectored write — the payload bytes go from the
// caller's slice to the socket without an intermediate copy; everything
// else is framed into a reused scratch buffer.
func (t *TCPConn) Send(m protocol.Message) error {
	if err := t.armDeadline(t.c.SetWriteDeadline); err != nil {
		return err
	}
	if err := t.fw.WriteFrame(t.c, m); err != nil {
		return err
	}
	t.onSend(m.WireSize())
	return nil
}

// Recv implements Conn. The payload is read into a pooled buffer that is
// recycled on the next Recv — see the Conn contract.
func (t *TCPConn) Recv() ([]byte, error) {
	n, err := t.peekFrameLen()
	if err != nil {
		return nil, err
	}
	return t.readPayload(n)
}

// recvInto is RecvInto's native form: the bulk bytes go from the socket
// (or bufio's buffer) straight into the placed slice.
func (t *TCPConn) recvInto(headLen, tailLen int, place func(n int, head []byte) []byte) ([]byte, []byte, error) {
	n, err := t.peekFrameLen()
	if err != nil {
		return nil, nil, err
	}
	if n < headLen+tailLen {
		p, err := t.readPayload(n)
		return p, nil, err
	}
	// Only now peek the head: the frame is known to hold headLen bytes, so
	// the peek cannot wait on bytes the peer never promised.
	hdr, err := t.br.Peek(frameHeaderSize + headLen)
	if err != nil {
		if isStreamEnd(err) {
			return nil, nil, fmt.Errorf("%w: %d of %d payload bytes",
				ErrTruncatedFrame, t.br.Buffered()-frameHeaderSize, n)
		}
		return nil, nil, err
	}
	bulk := place(n, hdr[frameHeaderSize:])
	if bulk == nil {
		p, err := t.readPayload(n)
		return p, nil, err
	}
	if err := checkPlaced(bulk, n, headLen, tailLen); err != nil {
		return nil, nil, err
	}
	buf, hit := GetBuffer(headLen + tailLen)
	t.onPool(hit)
	buf = append(buf, hdr[frameHeaderSize:]...)[:headLen+tailLen]
	if _, err := t.br.Discard(frameHeaderSize + headLen); err != nil {
		PutBuffer(buf)
		return nil, nil, err
	}
	// ReadFull into a slice larger than bufio's buffer drains what is
	// buffered and then reads the socket directly, with no staging copy.
	if err := t.readFull(bulk, headLen, n); err != nil {
		PutBuffer(buf)
		return nil, nil, err
	}
	if err := t.readFull(buf[headLen:], n-tailLen, n); err != nil {
		PutBuffer(buf)
		return nil, nil, err
	}
	t.lastRecv = buf
	t.onRecv(n)
	return buf, bulk, nil
}

// peekFrameLen arms the read deadline, recycles the previous payload, and
// returns the next frame's validated payload length, leaving the length
// prefix unconsumed.
func (t *TCPConn) peekFrameLen() (int, error) {
	if err := t.armDeadline(t.c.SetReadDeadline); err != nil {
		return 0, err
	}
	if t.lastRecv != nil {
		PutBuffer(t.lastRecv)
		t.lastRecv = nil
	}
	// Peek the header through bufio instead of protocol.ReadFrameHeader:
	// reading into a local array through the io.Reader interface would make
	// the array escape, one allocation per message.
	hdr, err := t.br.Peek(frameHeaderSize)
	if err != nil {
		// A clean close lands exactly between frames and surfaces as io.EOF
		// with nothing buffered; a close inside the header is a truncation.
		if got := t.br.Buffered(); got > 0 && isStreamEnd(err) {
			return 0, fmt.Errorf("%w: %d of %d header bytes", ErrTruncatedFrame, got, frameHeaderSize)
		}
		return 0, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > protocol.MaxFrameSize {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, protocol.MaxFrameSize)
	}
	return n, nil
}

// readPayload consumes the length prefix of an n-byte frame and reads its
// payload into a pooled buffer.
func (t *TCPConn) readPayload(n int) ([]byte, error) {
	if _, err := t.br.Discard(frameHeaderSize); err != nil {
		return nil, err
	}
	buf, hit := GetBuffer(n)
	t.onPool(hit)
	buf = buf[:n]
	if err := t.readFull(buf, 0, n); err != nil {
		PutBuffer(buf)
		return nil, err
	}
	t.lastRecv = buf
	t.onRecv(n)
	return buf, nil
}

// readFull fills p from the stream. done counts the frame's n payload bytes
// that precede p, so a truncation reports how far into the frame it struck.
func (t *TCPConn) readFull(p []byte, done, n int) error {
	got, err := io.ReadFull(t.br, p)
	if err != nil && isStreamEnd(err) {
		return fmt.Errorf("%w: %d of %d payload bytes", ErrTruncatedFrame, done+got, n)
	}
	return err
}

// Close implements Conn.
func (t *TCPConn) Close() error { return t.c.Close() }

// encodeFrame renders the full length-prefixed frame of m into a fresh
// buffer; the fault paths below need the raw bytes to cut or split.
func encodeFrame(m protocol.Message) ([]byte, error) {
	buf := make([]byte, frameHeaderSize, frameHeaderSize+m.WireSize())
	binary.LittleEndian.PutUint32(buf, uint32(m.WireSize()))
	buf = m.Encode(buf)
	if len(buf) != frameHeaderSize+m.WireSize() {
		return nil, fmt.Errorf("transport: %T encoded %d bytes, declared %d",
			m, len(buf)-frameHeaderSize, m.WireSize())
	}
	return buf, nil
}

// sendTruncated implements truncatedSender: it emits the frame header plus
// only the first keep payload bytes, then tears the connection down, so
// the peer observes a mid-frame truncation.
func (t *TCPConn) sendTruncated(m protocol.Message, keep int) error {
	buf, err := encodeFrame(m)
	if err != nil {
		return err
	}
	if err := t.armDeadline(t.c.SetWriteDeadline); err != nil {
		return err
	}
	if keep < 0 {
		keep = 0
	}
	if keep > m.WireSize()-1 {
		keep = m.WireSize() - 1
	}
	_, werr := t.c.Write(buf[:frameHeaderSize+keep])
	cerr := t.c.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// sendSplit implements splitSender: the frame goes out whole but across
// two raw writes split at firstN frame bytes, exercising the peer's
// mid-frame reassembly without corrupting anything.
func (t *TCPConn) sendSplit(m protocol.Message, firstN int) error {
	buf, err := encodeFrame(m)
	if err != nil {
		return err
	}
	if err := t.armDeadline(t.c.SetWriteDeadline); err != nil {
		return err
	}
	if firstN <= 0 || firstN >= len(buf) {
		firstN = len(buf) / 2
	}
	if _, err := t.c.Write(buf[:firstN]); err != nil {
		return err
	}
	if _, err := t.c.Write(buf[firstN:]); err != nil {
		return err
	}
	t.onSend(m.WireSize())
	return nil
}

// --- Simulated pipe -----------------------------------------------------------

// ErrClosed is returned by operations on a closed simulated connection.
var ErrClosed = errors.New("transport: connection closed")

// pipeBuffer bounds in-flight messages per direction. The protocol is
// strictly request/response, so even a small buffer never blocks.
const pipeBuffer = 16

// pipeMsg is one in-flight message: its encoded payload plus the clock
// instant its network transfer completed. The arrival stamp is recorded by
// the sender — the client races ahead of the server when streaming chunks,
// so reading the clock at receive time would observe a later (and
// scheduling-dependent) instant.
type pipeMsg struct {
	payload []byte
	at      time.Duration
}

// PipeEnd is one end of a simulated connection. Like TCPConn it is
// half-duplex per direction: one goroutine sending, one receiving.
type PipeEnd struct {
	counters
	link      *netsim.Link
	clock     vclock.Clock
	noise     *netsim.Noise
	out       chan pipeMsg
	in        chan pipeMsg
	done      chan struct{}
	closeOnce *sync.Once
	peer      *PipeEnd
	lastRecv  []byte       // previous Recv's pooled payload, recycled on the next Recv
	opTimeout atomic.Int64 // nanoseconds; 0 disables deadlines
	// lastSendDone is the clock instant the latest Send's transfer
	// completed, in nanoseconds (see SendStamper).
	lastSendDone atomic.Int64
}

var (
	_ Conn            = (*PipeEnd)(nil)
	_ TimedReceiver   = (*PipeEnd)(nil)
	_ ScheduledSender = (*PipeEnd)(nil)
	_ DeadlineCapable = (*PipeEnd)(nil)
	_ SendStamper     = (*PipeEnd)(nil)
)

// LastSendDone implements SendStamper.
func (p *PipeEnd) LastSendDone() time.Duration { return time.Duration(p.lastSendDone.Load()) }

// SetOpTimeout implements DeadlineCapable. The simulated clock only
// advances while a peer is actively sending, so a stalled peer would block
// a Recv forever on any clock; the bound therefore runs on wall time — the
// frame of reference in which a hung goroutine actually hangs — while
// clean operations keep their deterministic simulated timing.
func (p *PipeEnd) SetOpTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.opTimeout.Store(int64(d))
}

// opDeadline returns a channel that fires when the configured per-op bound
// expires, plus the timer to stop; both are nil with deadlines disabled.
func (p *PipeEnd) opDeadline() (<-chan time.Time, *time.Timer) {
	d := time.Duration(p.opTimeout.Load())
	if d == 0 {
		return nil, nil
	}
	t := time.NewTimer(d)
	return t.C, t
}

// Pipe creates a connected pair of simulated connection ends over the given
// interconnect. Every Send advances the shared clock by the link's modeled
// wire time for the message's payload size (perturbed by noise, which may
// be nil), then delivers the payload to the peer.
func Pipe(link *netsim.Link, clock vclock.Clock, noise *netsim.Noise) (client, server *PipeEnd) {
	ab := make(chan pipeMsg, pipeBuffer)
	ba := make(chan pipeMsg, pipeBuffer)
	done := make(chan struct{})
	once := new(sync.Once)
	a := &PipeEnd{link: link, clock: clock, noise: noise, out: ab, in: ba, done: done, closeOnce: once}
	b := &PipeEnd{link: link, clock: clock, noise: noise, out: ba, in: ab, done: done, closeOnce: once}
	a.peer, b.peer = b, a
	return a, b
}

// Send implements Conn: it charges the modeled one-way wire latency on the
// shared clock and enqueues the payload at the peer, stamped with its
// arrival instant.
func (p *PipeEnd) Send(m protocol.Message) error {
	buf, hit := GetBuffer(m.WireSize())
	p.onPool(hit)
	payload := m.Encode(buf)
	if len(payload) != m.WireSize() {
		return fmt.Errorf("transport: %T encoded %d bytes, declared %d", m, len(payload), m.WireSize())
	}
	wire := p.link.WireTime(int64(len(payload)))
	if p.noise != nil {
		wire = p.noise.Perturb(wire)
	}
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	p.clock.Sleep(wire)
	at := p.clock.Now()
	p.lastSendDone.Store(int64(at))
	expired, timer := p.opDeadline()
	if timer != nil {
		defer timer.Stop()
	}
	select {
	case p.out <- pipeMsg{payload: payload, at: at}:
		p.onSend(len(payload))
		return nil
	case <-p.done:
		return ErrClosed
	case <-expired:
		return fmt.Errorf("transport: pipe send: %w", os.ErrDeadlineExceeded)
	}
}

// advancer is the optional clock capability SendAt needs; vclock.Sim has
// it, wall clocks do not (real time cannot be jumped forward).
type advancer interface {
	AdvanceTo(t time.Duration)
}

// SendAt implements ScheduledSender: it first moves the clock forward to
// notBefore (a no-op if already past, or if the clock cannot jump) and then
// sends as usual, so the message's wire transfer is modeled as starting no
// earlier than notBefore.
func (p *PipeEnd) SendAt(m protocol.Message, notBefore time.Duration) error {
	if adv, ok := p.clock.(advancer); ok {
		adv.AdvanceTo(notBefore)
	}
	return p.Send(m)
}

// Recv implements Conn; see RecvTimed.
func (p *PipeEnd) Recv() ([]byte, error) {
	payload, _, err := p.RecvTimed()
	return payload, err
}

// RecvTimed implements TimedReceiver. The payload occupies a pooled buffer
// that is recycled on the next receive — see the Conn contract.
func (p *PipeEnd) RecvTimed() ([]byte, time.Duration, error) {
	if p.lastRecv != nil {
		PutBuffer(p.lastRecv)
		p.lastRecv = nil
	}
	deliver := func(msg pipeMsg) ([]byte, time.Duration, error) {
		p.lastRecv = msg.payload
		p.onRecv(len(msg.payload))
		return msg.payload, msg.at, nil
	}
	expired, timer := p.opDeadline()
	if timer != nil {
		defer timer.Stop()
	}
	select {
	case msg := <-p.in:
		return deliver(msg)
	case <-expired:
		return nil, 0, fmt.Errorf("transport: pipe recv: %w", os.ErrDeadlineExceeded)
	case <-p.done:
		// Drain anything that raced with Close so shutdown is orderly.
		select {
		case msg := <-p.in:
			return deliver(msg)
		default:
			return nil, 0, errClosedEOF()
		}
	}
}

// errClosedEOF distinguishes orderly shutdown; callers treat it like EOF.
func errClosedEOF() error { return ErrClosed }

// sendTruncated implements truncatedSender for the simulated pipe. The
// pipe has no byte stream to cut mid-frame, so truncation delivers the
// first keep payload bytes as the message and then closes the connection:
// the peer decodes a short, malformed payload — the same observable
// outcome a torn frame has after reassembly.
func (p *PipeEnd) sendTruncated(m protocol.Message, keep int) error {
	buf, hit := GetBuffer(m.WireSize())
	p.onPool(hit)
	payload := m.Encode(buf)
	if keep < 0 {
		keep = 0
	}
	if keep > len(payload)-1 {
		keep = len(payload) - 1
	}
	if keep < 0 {
		keep = 0
	}
	payload = payload[:keep]
	wire := p.link.WireTime(int64(len(payload)))
	if p.noise != nil {
		wire = p.noise.Perturb(wire)
	}
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	p.clock.Sleep(wire)
	select {
	case p.out <- pipeMsg{payload: payload, at: p.clock.Now()}:
		p.onSend(len(payload))
	case <-p.done:
	}
	return p.Close()
}

// Close implements Conn. Closing either end terminates both directions.
func (p *PipeEnd) Close() error {
	p.closeOnce.Do(func() { close(p.done) })
	return nil
}

// Link returns the interconnect this pipe simulates.
func (p *PipeEnd) Link() *netsim.Link { return p.link }
