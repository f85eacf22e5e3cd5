package rcuda

import (
	"fmt"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// This file implements both halves of the pipelined chunked-memcpy data
// path (see internal/protocol/chunked.go for the message flow). The client
// splits a bulk transfer into chunks; the server books each chunk's PCIe
// push at its network-arrival instant on a dedicated stream, so on the
// simulated clock the transfer costs about max(network, PCIe) instead of
// network + PCIe. A whole chunked transfer is observed as the single
// cudaMemcpy call it replaces.

// --- Client ------------------------------------------------------------------

// memcpyToDeviceChunked streams src to the device through the chunked
// protocol. Each chunk's Data aliases src directly, so on a vectored
// transport the payload goes from the caller's buffer to the wire with no
// intermediate copy.
func (c *Client) memcpyToDeviceChunked(dst cudart.DevicePtr, src []byte) error {
	if c.closed.Load() {
		return cudart.ErrorInitialization
	}
	total := uint32(len(src))
	begin := &protocol.MemcpyStreamBeginRequest{
		Ptr:       uint32(dst),
		Total:     total,
		Kind:      protocol.KindHostToDevice,
		ChunkSize: c.chunkSize,
	}
	sent, recv := begin.WireSize(), 0
	if err := c.conn.Send(begin); err != nil {
		return fmt.Errorf("rcuda: stream begin send: %w", err)
	}
	payload, err := c.conn.Recv()
	if err != nil {
		return fmt.Errorf("rcuda: stream begin recv: %w", err)
	}
	ack, err := protocol.DecodeMemcpyStreamBeginResponse(payload)
	if err != nil {
		return err
	}
	recv += len(payload)
	if ackErr := cudart.Error(ack.Err).AsError(); ackErr != nil {
		c.observe(protocol.OpMemcpyToDevice, sent, recv)
		return ackErr
	}
	chunk := &protocol.MemcpyStreamChunk{}
	for off, seq := 0, uint32(0); off < len(src); seq++ {
		end := off + int(c.chunkSize)
		if end > len(src) {
			end = len(src)
		}
		chunk.Seq, chunk.Data = seq, src[off:end]
		if err := c.conn.Send(chunk); err != nil {
			return fmt.Errorf("rcuda: stream chunk %d send: %w", seq, err)
		}
		sent += chunk.WireSize()
		off = end
	}
	endReq := &protocol.MemcpyStreamEndRequest{Chunks: protocol.Chunks(total, c.chunkSize)}
	if err := c.conn.Send(endReq); err != nil {
		return fmt.Errorf("rcuda: stream end send: %w", err)
	}
	sent += endReq.WireSize()
	if payload, err = c.conn.Recv(); err != nil {
		return fmt.Errorf("rcuda: stream end recv: %w", err)
	}
	status, err := protocol.DecodeMemcpyStreamEndResponse(payload)
	if err != nil {
		return err
	}
	recv += len(payload)
	c.observe(protocol.OpMemcpyToDevice, sent, recv)
	return cudart.Error(status.Err).AsError()
}

// memcpyToHostChunked reads device memory into dst through the chunked
// protocol: after the server acknowledges, the chunks stream in without
// per-chunk acknowledgements and are assembled directly into dst.
func (c *Client) memcpyToHostChunked(dst []byte, src cudart.DevicePtr) error {
	if c.closed.Load() {
		return cudart.ErrorInitialization
	}
	total := uint32(len(dst))
	begin := &protocol.MemcpyStreamBeginRequest{
		Ptr:       uint32(src),
		Total:     total,
		Kind:      protocol.KindDeviceToHost,
		ChunkSize: c.chunkSize,
	}
	sent, recv := begin.WireSize(), 0
	if err := c.conn.Send(begin); err != nil {
		return fmt.Errorf("rcuda: stream begin send: %w", err)
	}
	payload, err := c.conn.Recv()
	if err != nil {
		return fmt.Errorf("rcuda: stream begin recv: %w", err)
	}
	ack, err := protocol.DecodeMemcpyStreamBeginResponse(payload)
	if err != nil {
		return err
	}
	recv += len(payload)
	if ackErr := cudart.Error(ack.Err).AsError(); ackErr != nil {
		c.observe(protocol.OpMemcpyToHost, sent, recv)
		return ackErr
	}
	asm, err := protocol.NewChunkAssembler(total, c.chunkSize, dst)
	if err != nil {
		return err
	}
	for i, n := uint32(0), protocol.Chunks(total, c.chunkSize); i < n; i++ {
		if payload, err = c.conn.Recv(); err != nil {
			return fmt.Errorf("rcuda: stream chunk recv: %w", err)
		}
		chunk, err := protocol.DecodeMemcpyStreamChunk(payload)
		if err != nil {
			return err
		}
		if _, err := asm.Add(chunk); err != nil {
			return err
		}
		recv += len(payload)
	}
	if payload, err = c.conn.Recv(); err != nil {
		return fmt.Errorf("rcuda: stream end recv: %w", err)
	}
	status, err := protocol.DecodeMemcpyStreamEndResponse(payload)
	if err != nil {
		return err
	}
	recv += len(payload)
	c.observe(protocol.OpMemcpyToHost, sent, recv)
	if statusErr := cudart.Error(status.Err).AsError(); statusErr != nil {
		return statusErr
	}
	if !asm.Complete() {
		return fmt.Errorf("rcuda: stream ended with incomplete transfer")
	}
	return nil
}

// --- Server ------------------------------------------------------------------

// dispatchChunked handles the chunked-transfer requests. A Begin runs the
// whole sub-protocol inline; a chunk or end outside a transfer means the
// client and server have lost framing, which is fatal for the session.
func (s *Server) dispatchChunked(conn transport.Conn, sess *session, req protocol.Request) (handled bool, err error) {
	switch r := req.(type) {
	case *protocol.MemcpyStreamBeginRequest:
		return true, s.serveMemcpyStream(conn, sess, r)
	case *protocol.MemcpyStreamChunk, *protocol.MemcpyStreamEndRequest:
		return true, fmt.Errorf("rcuda: %v outside a chunked transfer", req.Op())
	default:
		return false, nil
	}
}

// recvArrival receives the next message together with its arrival instant.
// Transports without arrival stamps (real sockets) fall back to the device
// clock, where the degraded synchronous copy path ignores the instant
// anyway.
func recvArrival(conn transport.Conn, dev *gpu.Device) ([]byte, time.Duration, error) {
	if tr, ok := conn.(transport.TimedReceiver); ok {
		return tr.RecvTimed()
	}
	payload, err := conn.Recv()
	return payload, dev.Clock().Now(), err
}

// sendReady sends a message whose payload is only available at the given
// instant (a chunk completing its PCIe read). Transports that cannot
// schedule sends just send immediately.
func sendReady(conn transport.Conn, m protocol.Message, ready time.Duration) error {
	if ss, ok := conn.(transport.ScheduledSender); ok {
		return ss.SendAt(m, ready)
	}
	return conn.Send(m)
}

// serveMemcpyStream services one chunked transfer end to end. Recoverable
// failures (bad region, device errors) are reported in the Begin
// acknowledgement or the End status; only transport and framing failures
// end the session.
func (s *Server) serveMemcpyStream(conn transport.Conn, sess *session, begin *protocol.MemcpyStreamBeginRequest) error {
	ctx := sess.context()
	dev := s.srvDevice(sess)
	if _, err := ctx.Region(begin.Ptr, begin.Total); err != nil {
		return conn.Send(&protocol.MemcpyStreamBeginResponse{Err: code(err)})
	}
	stream, err := ctx.StreamCreate()
	if err != nil {
		return conn.Send(&protocol.MemcpyStreamBeginResponse{Err: code(err)})
	}
	if err := conn.Send(&protocol.MemcpyStreamBeginResponse{}); err != nil {
		return err
	}
	if begin.Kind == protocol.KindHostToDevice {
		return s.serveStreamToDevice(conn, ctx, dev, stream, begin)
	}
	return s.serveStreamToHost(conn, ctx, dev, stream, begin)
}

// srvDevice returns the device of the session's selected context.
func (s *Server) srvDevice(sess *session) *gpu.Device { return s.devs[sess.cur] }

// serveStreamToDevice overlaps receiving chunk k+1 from the network with
// pushing chunk k across the PCIe link: each chunk's copy is booked on the
// transfer's stream at the chunk's arrival instant, and the closing End
// waits for the stream to drain.
func (s *Server) serveStreamToDevice(conn transport.Conn, ctx *gpu.Context, dev *gpu.Device, stream uint32, begin *protocol.MemcpyStreamBeginRequest) error {
	asm, err := protocol.NewChunkAssembler(begin.Total, begin.ChunkSize, nil)
	if err != nil {
		// Decoded Begin fields are pre-validated; reaching here is a bug.
		return err
	}
	var opErr error
	for {
		payload, at, err := recvArrival(conn, dev)
		if err != nil {
			return fmt.Errorf("rcuda: stream recv: %w", err)
		}
		req, err := protocol.DecodeRequest(payload)
		if err != nil {
			return fmt.Errorf("rcuda: malformed stream message: %w", err)
		}
		switch r := req.(type) {
		case *protocol.MemcpyStreamChunk:
			off, addErr := asm.Add(r)
			if addErr != nil {
				if opErr == nil {
					opErr = addErr
				}
				continue // keep draining to the End message
			}
			if opErr == nil {
				_, copyErr := ctx.CopyToDeviceAsyncAt(begin.Ptr+uint32(off), r.Data, stream, at)
				opErr = copyErr
			}
		case *protocol.MemcpyStreamEndRequest:
			// Sequence violations are reported in the End status rather
			// than killing the session: frames stay message-aligned, so
			// the dialogue is still coherent after a rejected transfer.
			if opErr == nil {
				opErr = asm.Finish(r)
			}
			if syncErr := ctx.StreamDestroy(stream); opErr == nil {
				opErr = syncErr
			}
			return conn.Send(&protocol.MemcpyStreamEndResponse{Err: code(opErr)})
		default:
			return fmt.Errorf("rcuda: %v inside a chunked transfer", req.Op())
		}
	}
}

// serveStreamToHost streams device memory back to the client. Every
// chunk's PCIe read is booked up front — back to back on the transfer's
// stream, starting at the acknowledged Begin — and each chunk is sent the
// moment its read completes, so chunk k's network transfer overlaps chunk
// k+1's PCIe read on the simulated clock.
func (s *Server) serveStreamToHost(conn transport.Conn, ctx *gpu.Context, dev *gpu.Device, stream uint32, begin *protocol.MemcpyStreamBeginRequest) error {
	start := dev.Clock().Now()
	n := protocol.Chunks(begin.Total, begin.ChunkSize)
	chunk := &protocol.MemcpyStreamChunk{}
	var sendErr error
	for seq := uint32(0); seq < n; seq++ {
		off := seq * begin.ChunkSize
		size := begin.Total - off
		if size > begin.ChunkSize {
			size = begin.ChunkSize
		}
		buf, _ := transport.GetBuffer(int(size))
		buf = buf[:size]
		ready, err := ctx.CopyToHostAsyncAt(buf, begin.Ptr+off, stream, start)
		if err != nil {
			// Unreachable after Begin validation short of a destroyed
			// context; the client still expects n chunks, so the session
			// cannot be salvaged.
			return fmt.Errorf("rcuda: chunked read at %#x: %w", begin.Ptr+off, err)
		}
		chunk.Seq, chunk.Data = seq, buf
		sendErr = sendReady(conn, chunk, ready)
		transport.PutBuffer(buf)
		if sendErr != nil {
			return fmt.Errorf("rcuda: stream chunk %d send: %w", seq, sendErr)
		}
	}
	opErr := ctx.StreamDestroy(stream)
	return conn.Send(&protocol.MemcpyStreamEndResponse{Err: code(opErr)})
}
