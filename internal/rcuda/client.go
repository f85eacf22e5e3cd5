package rcuda

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// Client is the client side of the middleware: a cudart.Runtime whose every
// method is a remote procedure call to an rCUDA server. Applications built
// against cudart.Runtime cannot tell it from a local GPU — the paper's
// "illusion of being a real GPU".
//
// A Client is not safe for concurrent use by multiple goroutines: the
// protocol is strictly synchronous request/response, matching the paper's
// scope (asynchronous transfers are explicitly future work there).
//
// Close tears the session down: it sends the finalization message, closes
// the transport, and detaches the observer. After Close — which is
// idempotent — every Runtime method fails with cudart.ErrorInitialization,
// mirroring how the CUDA runtime reports calls after cudaDeviceReset.
type Client struct {
	conn     transport.Conn
	capMajor uint32
	capMinor uint32
	closed   atomic.Bool
	// Chunked-transfer tuning; chunkThreshold 0 disables the chunked
	// protocol entirely (the wire-compatible Table I default).
	chunkThreshold int
	chunkSize      uint32
	// hooks for tracing; nil-safe.
	observer Observer
	// Retry/reconnect policy (see WithRetry and WithReconnect). The
	// mutable connection state shares the Client's single-goroutine
	// contract; only the counters are read concurrently via Stats.
	retryMax     int
	retryBackoff time.Duration
	retryRNG     *rand.Rand
	dial         func() (transport.Conn, error)
	sessionID    uint64
	durable      bool
	connBroken   bool
	lost         bool
	cstats       clientCounters
	// Batching state (see batch.go). pendSubs holds the encoded sub-ops of
	// the open batch; deferredErr is the oldest unreported batched-call
	// failure, surfaced at the next sync point.
	batching      bool
	batchMaxOps   int
	batchMaxBytes int
	pendSubs      [][]byte
	pendBytes     int
	batchSeq      uint64
	deferredErr   error
	// Immutable-reply cache (see cache.go). curDev tracks the device index
	// selected with SetDevice, keying the properties cache.
	caching    bool
	devCount   int
	devCountOK bool
	props      map[int]gpu.Properties
	curDev     int
	// Scheduling parameters declared in the session hello (WithSchedClass);
	// both zero means a bare hello.
	schedClass  uint32
	schedWeight uint32
}

var _ cudart.Runtime = (*Client)(nil)

// Observer receives a notification for every remote call a client makes.
// Package trace implements it to reproduce the paper's Figure 2.
type Observer interface {
	// Call reports one completed remote call with its Table I payload
	// sizes.
	Call(op protocol.Op, sentBytes, recvBytes int)
}

// ClientOption configures Open.
type ClientOption func(*Client)

// WithObserver attaches a call observer.
func WithObserver(o Observer) ClientOption {
	return func(c *Client) { c.observer = o }
}

// WithSchedClass declares the session's scheduling class and weight
// (SchedRealtime, SchedBatch, SchedBestEffort; weight 0 reads as 1) to a
// daemon running the multi-tenant scheduler. The declaration rides the
// session hello, so Open sends one even without WithReconnect — which
// also makes the session durable, a strict upgrade. Servers without the
// scheduler accept and ignore the extended hello.
func WithSchedClass(class, weight uint32) ClientOption {
	return func(c *Client) {
		c.schedClass = class
		c.schedWeight = weight
	}
}

// DefaultChunkThreshold is the transfer size at which WithChunkedTransfers
// switches to the chunked protocol when no explicit threshold is given:
// four default-size chunks, below which the extra round trip of the
// Begin acknowledgement outweighs the overlap.
const DefaultChunkThreshold = 4 * protocol.DefaultChunkSize

// WithChunkedTransfers opts in to the pipelined chunked-memcpy protocol
// for transfers of at least threshold bytes, split into chunkSize-byte
// chunks; the server overlaps each chunk's PCIe push with the next chunk's
// network transfer. threshold <= 0 selects DefaultChunkThreshold and
// chunkSize <= 0 selects protocol.DefaultChunkSize. Without this option
// every transfer uses the classic single-frame messages, whose byte
// accounting matches Table I of the paper.
func WithChunkedTransfers(threshold, chunkSize int) ClientOption {
	return func(c *Client) {
		if threshold <= 0 {
			threshold = DefaultChunkThreshold
		}
		if chunkSize <= 0 {
			chunkSize = protocol.DefaultChunkSize
		}
		c.chunkThreshold = threshold
		c.chunkSize = uint32(chunkSize)
	}
}

// Open establishes a session: it connects the client side of the middleware
// over an existing transport connection and performs the initialization
// exchange, locating and sending the application's GPU module.
func Open(conn transport.Conn, module []byte, opts ...ClientOption) (*Client, error) {
	// The jitter source is seeded, not time-derived, so a fault scenario
	// replays with identical backoff decisions.
	c := &Client{conn: conn, retryRNG: rand.New(rand.NewSource(1)), curDev: cacheCurrentDevice}
	for _, o := range opts {
		o(c)
	}
	req := &protocol.InitRequest{Module: module}
	if err := conn.Send(req); err != nil {
		return nil, fmt.Errorf("rcuda: init send: %w", err)
	}
	payload, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("rcuda: init recv: %w", err)
	}
	resp, err := protocol.DecodeInitResponse(payload)
	if err != nil {
		return nil, fmt.Errorf("rcuda: init decode: %w", err)
	}
	c.observe(protocol.OpInit, req.WireSize(), resp.WireSize())
	if resp.Err == protocol.CodeServerBusy {
		return nil, fmt.Errorf("rcuda: server refused admission: %w", ErrServerBusy)
	}
	if err := cudart.Error(resp.Err).AsError(); err != nil {
		return nil, fmt.Errorf("rcuda: server rejected initialization: %w", err)
	}
	c.capMajor, c.capMinor = resp.CapabilityMajor, resp.CapabilityMinor
	if c.dial != nil || c.schedClass != 0 || c.schedWeight != 0 {
		if err := c.helloDurable(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// helloDurable upgrades the freshly initialized session to a durable one
// so a later reconnect can reattach to it. It runs on the still-healthy
// initial connection and is not itself retried.
func (c *Client) helloDurable() error {
	hello := &protocol.SessionHelloRequest{Class: c.schedClass, Weight: c.schedWeight}
	if err := c.conn.Send(hello); err != nil {
		return fmt.Errorf("rcuda: session hello send: %w", err)
	}
	payload, err := c.conn.Recv()
	if err != nil {
		return fmt.Errorf("rcuda: session hello recv: %w", err)
	}
	resp, err := protocol.DecodeSessionHelloResponse(payload)
	if err != nil {
		return fmt.Errorf("rcuda: session hello decode: %w", err)
	}
	c.observe(protocol.OpSessionHello, hello.WireSize(), len(payload))
	if refuse := cudart.Error(resp.Err).AsError(); refuse != nil {
		return fmt.Errorf("rcuda: server refused durable session: %w", refuse)
	}
	c.sessionID = resp.Session
	c.durable = true
	return nil
}

func (c *Client) observe(op protocol.Op, sent, recv int) {
	if c.observer != nil {
		c.observer.Call(op, sent, recv)
	}
}

// roundTrip sends a request and returns the raw response payload. The
// exchange runs under the retry policy: a connection fault mid-exchange
// re-runs the whole request on a replacement connection when the
// operation is idempotent.
func (c *Client) roundTrip(req protocol.Request) ([]byte, error) {
	payload, _, err := c.roundTripInto(req, 0, 0, nil)
	return payload, err
}

// roundTripInto is roundTrip receiving the response through
// transport.RecvInto: place may land the response's bulk segment, framed
// by headLen and tailLen bytes, in the caller's memory. bulk is then the
// placed slice and payload holds only the head and tail. A retried
// exchange consults place afresh.
func (c *Client) roundTripInto(req protocol.Request, headLen, tailLen int, place func(n int, head []byte) []byte) (payload, bulk []byte, err error) {
	if c.closed.Load() {
		return nil, nil, cudart.ErrorInitialization
	}
	// Every synchronous exchange is a sync point for the batching layer:
	// pending coalesced work must reach the server first so the wire keeps
	// the program's call order, and a deferred batched-call failure surfaces
	// here instead of the exchange running.
	if err := c.syncPoint(); err != nil {
		return nil, nil, err
	}
	err = c.runRetry(req.Op(), func() error {
		// c.conn is read on every attempt: a reconnect replaces it.
		if err := c.conn.Send(req); err != nil {
			return fmt.Errorf("rcuda: %v send: %w", req.Op(), err)
		}
		p, b, err := transport.RecvInto(c.conn, headLen, tailLen, place)
		if err != nil {
			return fmt.Errorf("rcuda: %v recv: %w", req.Op(), err)
		}
		payload, bulk = p, b
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	c.observe(req.Op(), req.WireSize(), len(payload)+len(bulk))
	return payload, bulk, nil
}

// Malloc implements cudart.Runtime.
func (c *Client) Malloc(size uint32) (cudart.DevicePtr, error) {
	payload, err := c.roundTrip(&protocol.MallocRequest{Size: size})
	if err != nil {
		return 0, err
	}
	resp, err := protocol.DecodeMallocResponse(payload)
	if err != nil {
		return 0, err
	}
	if err := cudart.Error(resp.Err).AsError(); err != nil {
		return 0, err
	}
	return cudart.DevicePtr(resp.DevPtr), nil
}

// Free implements cudart.Runtime.
func (c *Client) Free(ptr cudart.DevicePtr) error {
	payload, err := c.roundTrip(&protocol.FreeRequest{DevPtr: uint32(ptr)})
	if err != nil {
		return err
	}
	resp, err := protocol.DecodeFreeResponse(payload)
	if err != nil {
		return err
	}
	return cudart.Error(resp.Err).AsError()
}

// MemcpyToDevice implements cudart.Runtime.
func (c *Client) MemcpyToDevice(dst cudart.DevicePtr, src []byte) error {
	if c.chunkThreshold > 0 && len(src) >= c.chunkThreshold {
		// The chunked path bypasses roundTrip, so it takes its sync point
		// here before the transfer starts.
		if err := c.syncPoint(); err != nil {
			return err
		}
		// Retry restarts the whole transfer from Begin: the server-side
		// rewrite of the same bytes to the same region is idempotent.
		return c.runRetry(protocol.OpMemcpyToDevice, func() error {
			return c.memcpyToDeviceChunked(dst, src)
		})
	}
	payload, err := c.roundTrip(&protocol.MemcpyToDeviceRequest{Dst: uint32(dst), Data: src})
	if err != nil {
		return err
	}
	resp, err := protocol.DecodeMemcpyToDeviceResponse(payload)
	if err != nil {
		return err
	}
	return cudart.Error(resp.Err).AsError()
}

// MemcpyToHost implements cudart.Runtime. The response's data is received
// straight into dst, so the call allocates and copies nothing for the data
// itself on a TCP connection.
func (c *Client) MemcpyToHost(dst []byte, src cudart.DevicePtr) error {
	if c.chunkThreshold > 0 && len(dst) >= c.chunkThreshold {
		if err := c.syncPoint(); err != nil {
			return err
		}
		return c.runRetry(protocol.OpMemcpyToHost, func() error {
			return c.memcpyToHostChunked(dst, src)
		})
	}
	// A reply carrying exactly len(dst) data bytes lands them in dst; an
	// error reply (or a malformed one) arrives whole and decodes below.
	place := func(n int, _ []byte) []byte {
		if n != len(dst)+4 {
			return nil
		}
		return dst
	}
	payload, bulk, err := c.roundTripInto(&protocol.MemcpyToHostRequest{
		Src:  uint32(src),
		Size: uint32(len(dst)),
	}, 0, 4, place)
	if err != nil {
		return err
	}
	into := dst
	if bulk != nil {
		into = nil // the data already landed; payload is the result code
	}
	errCode, err := protocol.DecodeMemcpyToHostResponseInto(payload, into)
	if cudaErr := cudart.Error(errCode).AsError(); cudaErr != nil {
		return cudaErr
	}
	return err
}

// Launch implements cudart.Runtime. cudaLaunch is asynchronous by
// definition, so with batching enabled it coalesces instead of paying a
// round trip; its server-side error surfaces at the next sync point.
func (c *Client) Launch(name string, grid, block cudart.Dim3, shared uint32, params []byte) error {
	req := &protocol.LaunchRequest{
		BlockDim:   [3]uint32{block.X, block.Y, block.Z},
		GridDim:    [2]uint32{grid.X, grid.Y},
		SharedSize: shared,
		Name:       name,
		Params:     params,
	}
	if c.batching {
		return c.enqueue(req)
	}
	payload, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	resp, err := protocol.DecodeLaunchResponse(payload)
	if err != nil {
		return err
	}
	return cudart.Error(resp.Err).AsError()
}

// DeviceSynchronize implements cudart.Runtime.
func (c *Client) DeviceSynchronize() error {
	payload, err := c.roundTrip(&protocol.SyncRequest{})
	if err != nil {
		return err
	}
	resp, err := protocol.DecodeSyncResponse(payload)
	if err != nil {
		return err
	}
	return cudart.Error(resp.Err).AsError()
}

// Capability implements cudart.Runtime, returning the compute capability
// received during initialization.
func (c *Client) Capability() (major, minor uint32) { return c.capMajor, c.capMinor }

// Close implements cudart.Runtime: it sends the finalization message (the
// daemon quits servicing this execution and releases its resources),
// closes the transport, and detaches the observer. It is idempotent; see
// the Client contract for post-Close behavior.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	// A broken durable session is revived just long enough to deliver the
	// finalization, so the server releases it instead of parking it until
	// daemon shutdown. Best-effort: an unreachable server leaves the
	// parked session to the daemon's own cleanup.
	if c.connBroken && !c.lost {
		if err := c.reconnect(); err != nil {
			c.lost = true
		}
	}
	// Close is the final sync point: pending batched work is flushed so its
	// effects land before finalization, and a deferred batched-call failure
	// gets its last chance to reach the application.
	var flushErr error
	if c.batching && !c.lost {
		flushErr = c.syncPoint()
	}
	req := &protocol.FinalizeRequest{}
	sendErr := c.conn.Send(req)
	if sendErr == nil {
		c.observe(protocol.OpFinalize, req.WireSize(), 0)
	}
	c.observer = nil
	closeErr := c.conn.Close()
	if flushErr != nil {
		return flushErr
	}
	if sendErr != nil {
		return sendErr
	}
	return closeErr
}
