package gpu

import "time"

// This file is the device half of the chunked-memcpy pipeline (see
// internal/protocol/chunked.go). The server books each chunk's PCIe push
// at the instant the chunk arrived from the network rather than at the
// instant it got around to dispatching it, so the copy engine drains
// chunk k while chunk k+1 is still on the wire. All entry points fall back
// to the synchronous path on the default stream or on a clock that cannot
// jump (wall time), where overlap cannot be modeled.

// Region returns the device bytes backing [addr, addr+size) — the range
// check every copy applies — without touching them or the clock. The
// chunked server validates a whole transfer with it before acknowledging
// the Begin message, and the rCUDA server receives host-to-device payloads
// straight into it before dispatching the copy.
func (c *Context) Region(addr, size uint32) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return nil, err
	}
	c.dev.mu.Lock()
	defer c.dev.mu.Unlock()
	return c.dev.alloc.region(addr, size)
}

// CopyToDeviceAsyncAt writes host data into device memory now and books
// its PCIe time on the copy engine and the stream, with the transfer
// starting no earlier than notBefore on the device clock. It returns the
// modeled completion instant. On the default stream or a non-advancing
// clock it degrades to the synchronous CopyToDevice.
func (c *Context) CopyToDeviceAsyncAt(dst uint32, data []byte, stream uint32, notBefore time.Duration) (time.Duration, error) {
	if stream == DefaultStream || !c.asyncCapable() {
		if err := c.CopyToDevice(dst, data); err != nil {
			return 0, err
		}
		return c.dev.cfg.Clock.Now(), nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return 0, err
	}
	c.dev.mu.Lock()
	region, err := c.dev.alloc.region(dst, uint32(len(data)))
	c.dev.mu.Unlock()
	if err != nil {
		return 0, err
	}
	copy(region, data)
	return c.scheduleAt(copyEngine, stream, c.dev.PCIeTime(int64(len(data))), notBefore)
}

// CopyToHostAsyncAt reads device memory into the caller's buffer now and
// books the transfer on the copy engine and the stream, starting no
// earlier than notBefore. It returns the modeled completion instant — the
// earliest moment the bytes may be put on the network. On the default
// stream or a non-advancing clock it degrades to the synchronous
// CopyToHostInto.
func (c *Context) CopyToHostAsyncAt(dst []byte, src uint32, stream uint32, notBefore time.Duration) (time.Duration, error) {
	if stream == DefaultStream || !c.asyncCapable() {
		if err := c.CopyToHostInto(dst, src); err != nil {
			return 0, err
		}
		return c.dev.cfg.Clock.Now(), nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return 0, err
	}
	c.dev.mu.Lock()
	region, err := c.dev.alloc.region(src, uint32(len(dst)))
	c.dev.mu.Unlock()
	if err != nil {
		return 0, err
	}
	copy(dst, region)
	return c.scheduleAt(copyEngine, stream, c.dev.PCIeTime(int64(len(dst))), notBefore)
}

// CopyToHostInto is CopyToHost reading into the caller's buffer instead of
// a fresh allocation; the buffer's length selects the transfer size.
func (c *Context) CopyToHostInto(dst []byte, src uint32) error {
	view, err := c.HostView(src, uint32(len(dst)))
	if err != nil {
		return err
	}
	copy(dst, view)
	return nil
}
