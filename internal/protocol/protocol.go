// Package protocol defines the rCUDA wire format.
//
// The client sends one message per CUDA Runtime API call. As in the paper,
// "the first 32 bits of the request identify the specific CUDA function
// called, while the subsequent data is function-dependent"; the server
// "always sends a 32-bit result code of the operation, and possibly more
// data depending on each particular function". The byte-level breakdown of
// every message reproduces Table I of the paper exactly; TableI() derives
// the table from the encoders themselves so a unit test can assert it.
//
// One operation is special: the initialization message is the first message
// on a fresh connection and carries no function identifier — the server
// recognizes it positionally, replies with the device compute capability
// (8 bytes) and a result code, and only then enters the request loop.
//
// All integers are little-endian. Device pointers are 32-bit, as in the
// CUDA 2.3 / Tesla C1060 (4 GB) era the paper targets. Messages travel in
// length-prefixed frames (see frame.go); the 4-byte frame header is
// transport overhead, already included in the measured per-message latency
// curves, and is not part of the Table I accounting.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Op identifies the remote CUDA function of a request.
type Op uint32

// Remote operations. OpInit never appears on the wire (the initialization
// exchange is positional) but is defined so traces can label it.
const (
	OpInit Op = iota
	OpMalloc
	OpMemcpyToDevice
	OpMemcpyToHost
	OpLaunch
	OpFree
	OpDeviceSynchronize
	OpFinalize
	opSentinel
)

// String returns the CUDA-level name of the operation.
func (o Op) String() string {
	switch o {
	case OpInit:
		return "Initialization"
	case OpMalloc:
		return "cudaMalloc"
	case OpMemcpyToDevice:
		return "cudaMemcpy (to device)"
	case OpMemcpyToHost:
		return "cudaMemcpy (to host)"
	case OpLaunch:
		return "cudaLaunch"
	case OpFree:
		return "cudaFree"
	case OpDeviceSynchronize:
		return "cudaDeviceSynchronize"
	case OpFinalize:
		return "Finalization"
	default:
		if name, ok := asyncOpNames[o]; ok {
			return name
		}
		if name, ok := deviceOpNames[o]; ok {
			return name
		}
		if name, ok := queryOpNames[o]; ok {
			return name
		}
		if name, ok := chunkedOpNames[o]; ok {
			return name
		}
		if name, ok := sessionOpNames[o]; ok {
			return name
		}
		if name, ok := statsOpNames[o]; ok {
			return name
		}
		if name, ok := batchOpNames[o]; ok {
			return name
		}
		if name, ok := migrateOpNames[o]; ok {
			return name
		}
		return fmt.Sprintf("Op(%d)", uint32(o))
	}
}

// Memcpy kinds, matching the CUDA Runtime API enumeration.
const (
	KindHostToDevice uint32 = 1
	KindDeviceToHost uint32 = 2
)

// Errors returned by decoders.
var (
	ErrShortMessage = errors.New("protocol: message too short")
	ErrBadOp        = errors.New("protocol: unexpected operation code")
	errNoNUL        = errors.New("protocol: kernel name not NUL-terminated")
)

// Message is any encodable request or response.
type Message interface {
	// Encode appends the wire representation to dst and returns it.
	Encode(dst []byte) []byte
	// WireSize returns the encoded size in bytes (the Table I total).
	WireSize() int
}

func putU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func getU32(src []byte, off int) uint32 {
	return binary.LittleEndian.Uint32(src[off : off+4])
}

// --- Initialization -------------------------------------------------------

// InitRequest is the connection's opening message: the size-prefixed GPU
// module (kernel code and statically allocated variables). Table I: send
// Size (4) + Module (x) = x+4 bytes.
type InitRequest struct {
	Module []byte
}

// Encode implements Message.
func (m *InitRequest) Encode(dst []byte) []byte {
	dst = m.SegmentHead(dst)
	return append(dst, m.Module...)
}

// WireSize implements Message.
func (m *InitRequest) WireSize() int { return 4 + len(m.Module) }

// SegmentHead implements Segmented.
func (m *InitRequest) SegmentHead(dst []byte) []byte { return putU32(dst, uint32(len(m.Module))) }

// SegmentBulk implements Segmented.
func (m *InitRequest) SegmentBulk() []byte { return m.Module }

// SegmentTail implements Segmented.
func (m *InitRequest) SegmentTail(dst []byte) []byte { return dst }

// DecodeInitRequest parses an initialization request.
func DecodeInitRequest(b []byte) (*InitRequest, error) {
	if len(b) < 4 {
		return nil, ErrShortMessage
	}
	n := int(getU32(b, 0))
	if len(b) != 4+n {
		return nil, fmt.Errorf("protocol: init module length %d does not match payload %d", n, len(b)-4)
	}
	mod := make([]byte, n)
	copy(mod, b[4:])
	return &InitRequest{Module: mod}, nil
}

// InitResponse carries the device compute capability and the result code.
// Table I: receive Compute capability (8) + CUDA error (4) = 12 bytes.
type InitResponse struct {
	CapabilityMajor uint32
	CapabilityMinor uint32
	Err             uint32
}

// Encode implements Message.
func (m *InitResponse) Encode(dst []byte) []byte {
	dst = putU32(dst, m.CapabilityMajor)
	dst = putU32(dst, m.CapabilityMinor)
	return putU32(dst, m.Err)
}

// WireSize implements Message.
func (m *InitResponse) WireSize() int { return 12 }

// DecodeInitResponse parses an initialization response.
func DecodeInitResponse(b []byte) (*InitResponse, error) {
	if len(b) != 12 {
		return nil, ErrShortMessage
	}
	return &InitResponse{
		CapabilityMajor: getU32(b, 0),
		CapabilityMinor: getU32(b, 4),
		Err:             getU32(b, 8),
	}, nil
}

// --- cudaMalloc -----------------------------------------------------------

// MallocRequest asks the server to allocate device memory. Table I: send
// Function id. (4) + Size (4) = 8 bytes.
type MallocRequest struct {
	Size uint32
}

// Encode implements Message.
func (m *MallocRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMalloc))
	return putU32(dst, m.Size)
}

// WireSize implements Message.
func (m *MallocRequest) WireSize() int { return 8 }

// MallocResponse returns the result code and the new device pointer.
// Table I: receive CUDA error (4) + Device pointer (4) = 8 bytes.
type MallocResponse struct {
	Err    uint32
	DevPtr uint32
}

// Encode implements Message.
func (m *MallocResponse) Encode(dst []byte) []byte {
	dst = putU32(dst, m.Err)
	return putU32(dst, m.DevPtr)
}

// WireSize implements Message.
func (m *MallocResponse) WireSize() int { return 8 }

// DecodeMallocResponse parses a cudaMalloc response.
func DecodeMallocResponse(b []byte) (*MallocResponse, error) {
	if len(b) != 8 {
		return nil, ErrShortMessage
	}
	return &MallocResponse{Err: getU32(b, 0), DevPtr: getU32(b, 4)}, nil
}

// --- cudaMemcpy -----------------------------------------------------------

// MemcpyToDeviceRequest moves host data into device memory. Table I: send
// Function id. (4) + Destination (4) + Source (4) + Size (4) + Kind (4) +
// Data (x) = x+20 bytes.
type MemcpyToDeviceRequest struct {
	Dst  uint32 // device pointer
	Src  uint32 // client-side host address tag (opaque to the server)
	Data []byte
}

// Encode implements Message.
func (m *MemcpyToDeviceRequest) Encode(dst []byte) []byte {
	dst = m.SegmentHead(dst)
	return append(dst, m.Data...)
}

// WireSize implements Message.
func (m *MemcpyToDeviceRequest) WireSize() int { return 20 + len(m.Data) }

// SegmentHead implements Segmented.
func (m *MemcpyToDeviceRequest) SegmentHead(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMemcpyToDevice))
	dst = putU32(dst, m.Dst)
	dst = putU32(dst, m.Src)
	dst = putU32(dst, uint32(len(m.Data)))
	return putU32(dst, KindHostToDevice)
}

// SegmentBulk implements Segmented.
func (m *MemcpyToDeviceRequest) SegmentBulk() []byte { return m.Data }

// SegmentTail implements Segmented.
func (m *MemcpyToDeviceRequest) SegmentTail(dst []byte) []byte { return dst }

// MemcpyToDeviceHeadSize is the length of the fixed fields that precede a
// MemcpyToDeviceRequest's data on the wire.
const MemcpyToDeviceHeadSize = 20

// DecodeMemcpyToDeviceHead parses the head of an n-byte MemcpyToDeviceRequest
// payload: the op, the kind, and a size that must account for exactly the
// n-MemcpyToDeviceHeadSize data bytes. Data is left nil for the caller to
// attach wherever the bulk landed. head may extend past the fixed fields.
func DecodeMemcpyToDeviceHead(head []byte, n int) (*MemcpyToDeviceRequest, error) {
	if len(head) < MemcpyToDeviceHeadSize || n < MemcpyToDeviceHeadSize {
		return nil, ErrShortMessage
	}
	if Op(getU32(head, 0)) != OpMemcpyToDevice {
		// A sentinel, not a formatted error: the server tries every
		// incoming head, so this rejection sits on the per-call path.
		return nil, ErrBadOp
	}
	if kind := getU32(head, 16); kind != KindHostToDevice {
		return nil, fmt.Errorf("protocol: memcpy-to-device with kind %d", kind)
	}
	if size := int(getU32(head, 12)); n != MemcpyToDeviceHeadSize+size {
		return nil, fmt.Errorf("protocol: memcpy size %d does not match payload %d", size, n-MemcpyToDeviceHeadSize)
	}
	return &MemcpyToDeviceRequest{Dst: getU32(head, 4), Src: getU32(head, 8)}, nil
}

// MemcpyToDeviceResponse carries only the result code (4 bytes).
type MemcpyToDeviceResponse struct {
	Err uint32
}

// Encode implements Message.
func (m *MemcpyToDeviceResponse) Encode(dst []byte) []byte { return putU32(dst, m.Err) }

// WireSize implements Message.
func (m *MemcpyToDeviceResponse) WireSize() int { return 4 }

// DecodeMemcpyToDeviceResponse parses a host-to-device memcpy response.
func DecodeMemcpyToDeviceResponse(b []byte) (*MemcpyToDeviceResponse, error) {
	if len(b) != 4 {
		return nil, ErrShortMessage
	}
	return &MemcpyToDeviceResponse{Err: getU32(b, 0)}, nil
}

// MemcpyToHostRequest asks for device data. Table I: send Function id. (4) +
// Destination (4) + Source (4) + Size (4) + Kind (4) = 20 bytes.
type MemcpyToHostRequest struct {
	Dst  uint32 // client-side host address tag (opaque to the server)
	Src  uint32 // device pointer
	Size uint32
}

// Encode implements Message.
func (m *MemcpyToHostRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMemcpyToHost))
	dst = putU32(dst, m.Dst)
	dst = putU32(dst, m.Src)
	dst = putU32(dst, m.Size)
	return putU32(dst, KindDeviceToHost)
}

// WireSize implements Message.
func (m *MemcpyToHostRequest) WireSize() int { return 20 }

// MemcpyToHostResponse returns the data followed by the result code.
// Table I: receive Data (x) + CUDA error (4) = x+4 bytes.
type MemcpyToHostResponse struct {
	Data []byte
	Err  uint32
}

// Encode implements Message.
func (m *MemcpyToHostResponse) Encode(dst []byte) []byte {
	dst = append(dst, m.Data...)
	return putU32(dst, m.Err)
}

// WireSize implements Message.
func (m *MemcpyToHostResponse) WireSize() int { return len(m.Data) + 4 }

// SegmentHead implements Segmented.
func (m *MemcpyToHostResponse) SegmentHead(dst []byte) []byte { return dst }

// SegmentBulk implements Segmented.
func (m *MemcpyToHostResponse) SegmentBulk() []byte { return m.Data }

// SegmentTail implements Segmented.
func (m *MemcpyToHostResponse) SegmentTail(dst []byte) []byte { return putU32(dst, m.Err) }

// DecodeMemcpyToHostResponse parses a device-to-host memcpy response.
func DecodeMemcpyToHostResponse(b []byte) (*MemcpyToHostResponse, error) {
	if len(b) < 4 {
		return nil, ErrShortMessage
	}
	data := make([]byte, len(b)-4)
	copy(data, b[:len(b)-4])
	return &MemcpyToHostResponse{Data: data, Err: getU32(b, len(b)-4)}, nil
}

// DecodeMemcpyToHostResponseInto parses a device-to-host memcpy response,
// copying the payload directly into dst — the caller's destination buffer —
// with no intermediate allocation. The payload must be empty (an error
// reply carries no data) or exactly len(dst) bytes. It returns the CUDA
// result code; callers must inspect a nonzero code before faulting on a
// payload-length mismatch.
func DecodeMemcpyToHostResponseInto(b, dst []byte) (code uint32, err error) {
	if len(b) < 4 {
		return 0, ErrShortMessage
	}
	data := b[:len(b)-4]
	code = getU32(b, len(b)-4)
	if code != 0 && len(data) == 0 {
		return code, nil
	}
	if len(data) != len(dst) {
		return code, fmt.Errorf("protocol: memcpy-to-host payload %d bytes, want %d", len(data), len(dst))
	}
	copy(dst, data)
	return code, nil
}

// --- cudaLaunch -----------------------------------------------------------

// LaunchRequest executes a kernel. Table I: send Function id. (4) + Texture
// offset (4) + Parameters offset (4) + Number of textures (4) + Block
// dimension (12) + Grid dimension (8) + Shared size (4) + Stream (4) +
// Kernel name (x) = x+44 bytes. The variable region x holds the
// NUL-terminated kernel name followed by the packed parameter block;
// ParamsOffset locates the parameters within the region, exactly what the
// "Parameters offset" field is for.
type LaunchRequest struct {
	TextureOffset uint32
	NumTextures   uint32
	BlockDim      [3]uint32
	GridDim       [2]uint32
	SharedSize    uint32
	Stream        uint32
	Name          string
	Params        []byte
}

// paramsOffset returns the offset of the parameter block inside the
// variable region: just past the NUL-terminated name.
func (m *LaunchRequest) paramsOffset() uint32 { return uint32(len(m.Name) + 1) }

// Encode implements Message.
func (m *LaunchRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpLaunch))
	dst = putU32(dst, m.TextureOffset)
	dst = putU32(dst, m.paramsOffset())
	dst = putU32(dst, m.NumTextures)
	for _, d := range m.BlockDim {
		dst = putU32(dst, d)
	}
	for _, d := range m.GridDim {
		dst = putU32(dst, d)
	}
	dst = putU32(dst, m.SharedSize)
	dst = putU32(dst, m.Stream)
	dst = append(dst, m.Name...)
	dst = append(dst, 0)
	return append(dst, m.Params...)
}

// WireSize implements Message.
func (m *LaunchRequest) WireSize() int { return 44 + len(m.Name) + 1 + len(m.Params) }

// LaunchResponse carries only the result code (4 bytes).
type LaunchResponse struct {
	Err uint32
}

// Encode implements Message.
func (m *LaunchResponse) Encode(dst []byte) []byte { return putU32(dst, m.Err) }

// WireSize implements Message.
func (m *LaunchResponse) WireSize() int { return 4 }

// DecodeLaunchResponse parses a cudaLaunch response.
func DecodeLaunchResponse(b []byte) (*LaunchResponse, error) {
	if len(b) != 4 {
		return nil, ErrShortMessage
	}
	return &LaunchResponse{Err: getU32(b, 0)}, nil
}

// --- cudaFree -------------------------------------------------------------

// FreeRequest releases device memory. Table I: send Function id. (4) +
// Device pointer (4) = 8 bytes.
type FreeRequest struct {
	DevPtr uint32
}

// Encode implements Message.
func (m *FreeRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpFree))
	return putU32(dst, m.DevPtr)
}

// WireSize implements Message.
func (m *FreeRequest) WireSize() int { return 8 }

// FreeResponse carries only the result code (4 bytes).
type FreeResponse struct {
	Err uint32
}

// Encode implements Message.
func (m *FreeResponse) Encode(dst []byte) []byte { return putU32(dst, m.Err) }

// WireSize implements Message.
func (m *FreeResponse) WireSize() int { return 4 }

// DecodeFreeResponse parses a cudaFree response.
func DecodeFreeResponse(b []byte) (*FreeResponse, error) {
	if len(b) != 4 {
		return nil, ErrShortMessage
	}
	return &FreeResponse{Err: getU32(b, 0)}, nil
}

// --- cudaDeviceSynchronize (extension beyond Table I) ----------------------

// SyncRequest blocks until all preceding device work completes. Not listed
// in Table I; it follows the same shape as cudaFree without an argument.
type SyncRequest struct{}

// Encode implements Message.
func (m *SyncRequest) Encode(dst []byte) []byte { return putU32(dst, uint32(OpDeviceSynchronize)) }

// WireSize implements Message.
func (m *SyncRequest) WireSize() int { return 4 }

// SyncResponse carries only the result code (4 bytes).
type SyncResponse struct {
	Err uint32
}

// Encode implements Message.
func (m *SyncResponse) Encode(dst []byte) []byte { return putU32(dst, m.Err) }

// WireSize implements Message.
func (m *SyncResponse) WireSize() int { return 4 }

// DecodeSyncResponse parses a cudaDeviceSynchronize response.
func DecodeSyncResponse(b []byte) (*SyncResponse, error) {
	if len(b) != 4 {
		return nil, ErrShortMessage
	}
	return &SyncResponse{Err: getU32(b, 0)}, nil
}

// --- Finalization ----------------------------------------------------------

// FinalizeRequest announces that the client is closing the session; the
// daemon quits servicing the current execution and releases its resources.
type FinalizeRequest struct{}

// Encode implements Message.
func (m *FinalizeRequest) Encode(dst []byte) []byte { return putU32(dst, uint32(OpFinalize)) }

// WireSize implements Message.
func (m *FinalizeRequest) WireSize() int { return 4 }

// --- Request decoding on the server side -----------------------------------

// Request is any client-to-server message after initialization.
type Request interface {
	Message
	// Op identifies the remote function.
	Op() Op
}

// Op implementations for the request types.
func (m *MallocRequest) Op() Op         { return OpMalloc }
func (m *MemcpyToDeviceRequest) Op() Op { return OpMemcpyToDevice }
func (m *MemcpyToHostRequest) Op() Op   { return OpMemcpyToHost }
func (m *LaunchRequest) Op() Op         { return OpLaunch }
func (m *FreeRequest) Op() Op           { return OpFree }
func (m *SyncRequest) Op() Op           { return OpDeviceSynchronize }
func (m *FinalizeRequest) Op() Op       { return OpFinalize }

// DecodeRequest parses any post-initialization request by its leading
// function identifier.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) < 4 {
		return nil, ErrShortMessage
	}
	op := Op(getU32(b, 0))
	switch op {
	case OpMalloc:
		if len(b) != 8 {
			return nil, ErrShortMessage
		}
		return &MallocRequest{Size: getU32(b, 4)}, nil
	case OpMemcpyToDevice:
		r, err := DecodeMemcpyToDeviceHead(b, len(b))
		if err != nil {
			return nil, err
		}
		// Data aliases b so bulk payloads decode without a copy; the caller
		// owns b until the request has been consumed (the server dispatches
		// each request before the next Recv reuses the frame buffer).
		r.Data = b[MemcpyToDeviceHeadSize:]
		return r, nil
	case OpMemcpyToHost:
		if len(b) != 20 {
			return nil, ErrShortMessage
		}
		if kind := getU32(b, 16); kind != KindDeviceToHost {
			return nil, fmt.Errorf("protocol: memcpy-to-host with kind %d", kind)
		}
		return &MemcpyToHostRequest{Dst: getU32(b, 4), Src: getU32(b, 8), Size: getU32(b, 12)}, nil
	case OpLaunch:
		return decodeLaunch(b)
	case OpFree:
		if len(b) != 8 {
			return nil, ErrShortMessage
		}
		return &FreeRequest{DevPtr: getU32(b, 4)}, nil
	case OpDeviceSynchronize:
		if len(b) != 4 {
			return nil, ErrShortMessage
		}
		return &SyncRequest{}, nil
	case OpFinalize:
		if len(b) != 4 {
			return nil, ErrShortMessage
		}
		return &FinalizeRequest{}, nil
	default:
		return decodeAsyncRequest(op, b)
	}
}

func decodeLaunch(b []byte) (*LaunchRequest, error) {
	if len(b) < 45 { // header + at least the name's NUL
		return nil, ErrShortMessage
	}
	m := &LaunchRequest{
		TextureOffset: getU32(b, 4),
		NumTextures:   getU32(b, 12),
		SharedSize:    getU32(b, 36),
		Stream:        getU32(b, 40),
	}
	paramsOff := int(getU32(b, 8))
	for i := range m.BlockDim {
		m.BlockDim[i] = getU32(b, 16+4*i)
	}
	for i := range m.GridDim {
		m.GridDim[i] = getU32(b, 28+4*i)
	}
	blob := b[44:]
	if paramsOff < 1 || paramsOff > len(blob) {
		return nil, fmt.Errorf("protocol: launch parameters offset %d out of range %d", paramsOff, len(blob))
	}
	if blob[paramsOff-1] != 0 {
		return nil, errNoNUL
	}
	m.Name = string(blob[:paramsOff-1])
	m.Params = make([]byte, len(blob)-paramsOff)
	copy(m.Params, blob[paramsOff:])
	return m, nil
}
