package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"rcuda/internal/blas"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/rcuda"
)

// runtime is what the workloads call: a remote rcuda.Client or, for the
// local baseline, a cudart.Local.
type runtime interface {
	cudart.AsyncRuntime
	cudart.DeviceRuntime
}

// session is one tenant's resident state on one runtime.
type session interface {
	// step issues one request, recording every call; it calls r.done when
	// the request's timed work ends and verifies after that.
	step(r *recorder) error
	// finish checks the device state the run left and frees resident data.
	finish(r *recorder) error
}

// tenant is one load goroutine's connection settings and oracle data.
type tenant struct {
	name string
	opts []rcuda.ClientOption
	// open allocates and uploads the tenant's resident data on rt.
	open func(rt runtime) (session, error)
	// replay is how many requests the local-baseline replay issues.
	replay int
}

// workload is one benchmark traffic mix.
type workload struct {
	name  string
	sched bool
	// tenants builds the tenants and precomputes their oracles from the
	// seed; that work is not part of set-up time.
	tenants func(seed int64) ([]*tenant, error)
}

var workloads = []*workload{
	{name: "ctl-rtt", tenants: ctlTenants},
	{name: "bulk-copy", tenants: bulkTenants},
	{name: "serve-mixed", sched: true, tenants: serveTenants},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Shapes from the paper's case studies: the 16×16 sgemm block, the MM
// case study at m=256 and the 64 MiB copy of one m=4096 MM matrix.
const (
	dim       = 16
	smallCopy = 4 << 10
	mmSize    = 256
	bulkBytes = 4 * 4096 * 4096
	layers    = 24
	rtInputs  = 32
	mmInputs  = 4
)

func seededFloats(rng *rand.Rand, n int) []float32 {
	m := make([]float32, n)
	for i := range m {
		m[i] = rng.Float32()*2 - 1
	}
	return m
}

func sgemm(m int, a, b []float32) ([]byte, error) {
	c := make([]float32, m*m)
	if err := blas.Sgemm(m, m, m, a, b, c); err != nil {
		return nil, err
	}
	return cudart.Float32Bytes(c), nil
}

func launchSgemm(rt runtime, a, b, c cudart.DevicePtr, m uint32) error {
	return rt.Launch(kernels.SgemmKernel, cudart.Dim3{X: m / dim, Y: m / dim}, cudart.Dim3{X: dim, Y: dim}, 0,
		gpu.PackParams(uint32(a), uint32(b), uint32(c), m))
}

func mallocAll(rt runtime, size uint32, n int) ([]cudart.DevicePtr, error) {
	ptrs := make([]cudart.DevicePtr, n)
	for i := range ptrs {
		p, err := rt.Malloc(size)
		if err != nil {
			return nil, err
		}
		ptrs[i] = p
	}
	return ptrs, nil
}

func freeAll(rt runtime, ptrs ...cudart.DevicePtr) error {
	for _, p := range ptrs {
		if err := rt.Free(p); err != nil {
			return err
		}
	}
	return nil
}

// --- ctl-rtt -----------------------------------------------------------------

// ctlTenants is one unbatched connection issuing a seeded mix of small
// synchronous calls.
func ctlTenants(seed int64) ([]*tenant, error) {
	rng := rand.New(rand.NewSource(seed))
	a, b := seededFloats(rng, dim*dim), seededFloats(rng, dim*dim)
	want, err := sgemm(dim, a, b)
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = make([]byte, smallCopy)
		rng.Read(payloads[i])
	}
	open := func(rt runtime) (session, error) {
		ptrs, err := mallocAll(rt, smallCopy, 5)
		if err != nil {
			return nil, err
		}
		s := &ctlSession{rt: rt, rng: rand.New(rand.NewSource(seed)), ptrs: ptrs,
			payloads: payloads, want: want, back: make([]byte, smallCopy)}
		if err := rt.MemcpyToDevice(ptrs[0], cudart.Float32Bytes(a)); err != nil {
			return nil, err
		}
		if err := rt.MemcpyToDevice(ptrs[1], cudart.Float32Bytes(b)); err != nil {
			return nil, err
		}
		if err := launchSgemm(rt, ptrs[0], ptrs[1], ptrs[2], dim); err != nil {
			return nil, err
		}
		return s, rt.Memset(ptrs[3], s.memsetVal, smallCopy)
	}
	return []*tenant{{name: "ctl", open: open, replay: 4000}}, nil
}

// ctlSession's resident buffers: ptrs[0..2] are the sgemm A, B and C,
// ptrs[3] the memset target and ptrs[4] the copy round-trip buffer.
type ctlSession struct {
	rt        runtime
	rng       *rand.Rand
	ptrs      []cudart.DevicePtr
	payloads  [][]byte
	next      int
	back      []byte
	memsetVal byte
	want      []byte
}

// step issues one item of the mix, chosen uniformly: Malloc+Free,
// DeviceSynchronize, Memset, a 4 KiB H2D+D2H round trip, or a 16×16 sgemm.
func (s *ctlSession) step(r *recorder) error {
	rt := s.rt
	switch s.rng.Intn(5) {
	case 0:
		t := time.Now()
		p, err := rt.Malloc(smallCopy)
		if err := r.end(opMalloc, t, err); err != nil {
			return err
		}
		t = time.Now()
		if err := r.end(opFree, t, rt.Free(p)); err != nil {
			return err
		}
	case 1:
		t := time.Now()
		if err := r.end(opSync, t, rt.DeviceSynchronize()); err != nil {
			return err
		}
	case 2:
		v := byte(s.rng.Intn(256))
		t := time.Now()
		if err := r.end(opMemset, t, rt.Memset(s.ptrs[3], v, smallCopy)); err != nil {
			return err
		}
		s.memsetVal = v
	case 3:
		src := s.payloads[s.next%len(s.payloads)]
		s.next++
		t := time.Now()
		if err := r.copied(opH2D, t, smallCopy, rt.MemcpyToDevice(s.ptrs[4], src)); err != nil {
			return err
		}
		t = time.Now()
		if err := r.copied(opD2H, t, smallCopy, rt.MemcpyToHost(s.back, s.ptrs[4])); err != nil {
			return err
		}
		r.done()
		if err := r.check(s.back, func(b []byte) bool { return bytes.Equal(b, src) }, "4 KiB readback"); err != nil {
			return err
		}
		return r.ceiling(src)
	case 4:
		t := time.Now()
		if err := r.end(opLaunch, t, launchSgemm(rt, s.ptrs[0], s.ptrs[1], s.ptrs[2], dim)); err != nil {
			return err
		}
		r.matrices(1)
	}
	r.done()
	return nil
}

// finish reads back the memset target and the sgemm output.
func (s *ctlSession) finish(r *recorder) error {
	if err := s.rt.MemcpyToHost(s.back, s.ptrs[3]); err != nil {
		return err
	}
	fill := bytes.Repeat([]byte{s.memsetVal}, smallCopy)
	if err := r.check(s.back, func(b []byte) bool { return bytes.Equal(b, fill) }, "memset readback"); err != nil {
		return err
	}
	c := make([]byte, len(s.want))
	if err := s.rt.MemcpyToHost(c, s.ptrs[2]); err != nil {
		return err
	}
	if err := r.check(c, func(b []byte) bool { return bytes.Equal(b, s.want) }, "sgemm output"); err != nil {
		return err
	}
	return freeAll(s.rt, s.ptrs...)
}

// --- bulk-copy ---------------------------------------------------------------

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// bulkTenants is one connection alternating 64 MiB host-to-device and
// device-to-host copies on the default single-frame path. Each copy is one
// request; a round is the H2D request and the D2H request after it. Rounds
// alternate two versions of the source, stamped in their first 8 bytes, so
// a stale readback fails its digest.
func bulkTenants(seed int64) ([]*tenant, error) {
	rng := rand.New(rand.NewSource(seed))
	src := make([]byte, bulkBytes)
	rng.Read(src)
	var digests [2]uint32
	for v := range digests {
		binary.LittleEndian.PutUint64(src, uint64(v))
		digests[v] = crc32.Checksum(src, crcTable)
	}
	dst := make([]byte, bulkBytes)
	open := func(rt runtime) (session, error) {
		p, err := rt.Malloc(bulkBytes)
		if err != nil {
			return nil, err
		}
		return &bulkSession{rt: rt, ptr: p, src: src, dst: dst, digests: digests}, nil
	}
	return []*tenant{{name: "bulk", open: open, replay: 8}}, nil
}

type bulkSession struct {
	rt       runtime
	ptr      cudart.DevicePtr
	src, dst []byte
	digests  [2]uint32
	round    int
	// loaded is set between a round's H2D request and its D2H request.
	loaded bool
}

// step issues the next copy of the round: the stamped source to the
// device, or the device buffer back, whose digest and ceiling transfer
// follow as harness time.
func (s *bulkSession) step(r *recorder) error {
	v := s.round % 2
	if !s.loaded {
		binary.LittleEndian.PutUint64(s.src, uint64(v))
		t := time.Now()
		if err := r.copied(opH2D, t, bulkBytes, s.rt.MemcpyToDevice(s.ptr, s.src)); err != nil {
			return err
		}
		r.done()
		r.matrices(1)
		s.loaded = true
		return nil
	}
	s.loaded = false
	s.round++
	t := time.Now()
	if err := r.copied(opD2H, t, bulkBytes, s.rt.MemcpyToHost(s.dst, s.ptr)); err != nil {
		return err
	}
	r.done()
	r.matrices(1)
	want := s.digests[v]
	if err := r.check(s.dst, func(b []byte) bool { return crc32.Checksum(b, crcTable) == want }, "64 MiB readback digest"); err != nil {
		return err
	}
	return r.ceiling(s.src)
}

func (s *bulkSession) finish(*recorder) error { return s.rt.Free(s.ptr) }

// --- serve-mixed -------------------------------------------------------------

// serveTenants is a realtime, batched inference tenant beside a besteffort
// tenant running the MM case study, on a daemon with the WFQ scheduler.
func serveTenants(seed int64) ([]*tenant, error) {
	rng := rand.New(rand.NewSource(seed))
	weights := make([][]float32, layers)
	for l := range weights {
		weights[l] = seededFloats(rng, dim*dim)
	}
	inputs := make([][]byte, rtInputs)
	outputs := make([][]byte, rtInputs)
	for i := range inputs {
		x := seededFloats(rng, dim*dim)
		inputs[i] = cudart.Float32Bytes(x)
		for _, w := range weights {
			y, err := sgemm(dim, w, x)
			if err != nil {
				return nil, err
			}
			x = cudart.BytesFloat32(y)
		}
		outputs[i] = cudart.Float32Bytes(x)
	}
	mms := make([]mmProblem, mmInputs)
	for i := range mms {
		a, b := seededFloats(rng, mmSize*mmSize), seededFloats(rng, mmSize*mmSize)
		c, err := sgemm(mmSize, a, b)
		if err != nil {
			return nil, err
		}
		mms[i] = mmProblem{a: cudart.Float32Bytes(a), b: cudart.Float32Bytes(b), c: c}
	}
	rt := &tenant{
		name:   "rt",
		opts:   []rcuda.ClientOption{rcuda.WithSchedClass(rcuda.SchedRealtime, 1), rcuda.WithBatching(0, 0)},
		replay: 200,
		open: func(rt runtime) (session, error) {
			return openInference(rt, weights, inputs, outputs)
		},
	}
	be := &tenant{
		name:   "be",
		opts:   []rcuda.ClientOption{rcuda.WithSchedClass(rcuda.SchedBestEffort, 1)},
		replay: 3,
		open: func(rt runtime) (session, error) {
			return &mmSession{rt: rt, problems: mms, out: make([]byte, 4*mmSize*mmSize)}, nil
		},
	}
	return []*tenant{rt, be}, nil
}

// inferSession runs the 24-layer 16×16 inference loop on resident weights.
type inferSession struct {
	rt            runtime
	weights       []cudart.DevicePtr
	act           [2]cudart.DevicePtr
	stream        cudart.Stream
	event         cudart.Event
	inputs, wants [][]byte
	next          int
	out           []byte
}

func openInference(rt runtime, weights [][]float32, inputs, wants [][]byte) (*inferSession, error) {
	s := &inferSession{rt: rt, inputs: inputs, wants: wants, out: make([]byte, 4*dim*dim)}
	ptrs, err := mallocAll(rt, 4*dim*dim, len(weights)+2)
	if err != nil {
		return nil, err
	}
	s.weights, s.act = ptrs[:len(weights)], [2]cudart.DevicePtr{ptrs[len(weights)], ptrs[len(weights)+1]}
	for l, w := range weights {
		if err := rt.MemcpyToDevice(s.weights[l], cudart.Float32Bytes(w)); err != nil {
			return nil, err
		}
	}
	if s.stream, err = rt.StreamCreate(); err != nil {
		return nil, err
	}
	if s.event, err = rt.EventCreate(); err != nil {
		return nil, err
	}
	return s, nil
}

// step is one inference request: a device-properties poll, the input
// copy, one launch per layer, event record, synchronize and query, and
// the output copy.
func (s *inferSession) step(r *recorder) error {
	rt := s.rt
	i := s.next % len(s.inputs)
	s.next++
	t := time.Now()
	_, err := rt.DeviceProperties()
	if err := r.end(opProps, t, err); err != nil {
		return err
	}
	t = time.Now()
	if err := r.end(opH2DAsync, t, rt.MemcpyToDeviceAsync(s.act[0], s.inputs[i], s.stream)); err != nil {
		return err
	}
	cur, nxt := s.act[0], s.act[1]
	for _, w := range s.weights {
		t = time.Now()
		err := rt.LaunchAsync(kernels.SgemmKernel, cudart.Dim3{X: 1, Y: 1}, cudart.Dim3{X: dim, Y: dim}, 0,
			gpu.PackParams(uint32(w), uint32(cur), uint32(nxt), dim), s.stream)
		if err := r.end(opLaunchAsync, t, err); err != nil {
			return err
		}
		cur, nxt = nxt, cur
	}
	t = time.Now()
	if err := r.end(opEventRecord, t, rt.EventRecord(s.event, s.stream)); err != nil {
		return err
	}
	t = time.Now()
	if err := r.end(opEventSync, t, rt.EventSynchronize(s.event)); err != nil {
		return err
	}
	t = time.Now()
	if err := r.end(opEventQuery, t, rt.EventQuery(s.event)); err != nil {
		return err
	}
	// The 1 KiB readback is part of the request, not a bulk copy: it stays
	// out of the bandwidth samples.
	t = time.Now()
	if err := r.end(opD2H, t, rt.MemcpyToHost(s.out, cur)); err != nil {
		return err
	}
	r.done()
	want := s.wants[i]
	return r.check(s.out, func(b []byte) bool { return bytes.Equal(b, want) }, "inference output")
}

func (s *inferSession) finish(*recorder) error {
	if err := s.rt.EventDestroy(s.event); err != nil {
		return err
	}
	if err := s.rt.StreamDestroy(s.stream); err != nil {
		return err
	}
	return freeAll(s.rt, append(s.weights, s.act[:]...)...)
}

type mmProblem struct{ a, b, c []byte }

// mmSession runs the MM case study at m=256: allocate, upload A and B,
// multiply, read C back, free.
type mmSession struct {
	rt       runtime
	problems []mmProblem
	next     int
	out      []byte
}

func (s *mmSession) step(r *recorder) error {
	rt := s.rt
	p := s.problems[s.next%len(s.problems)]
	s.next++
	const nbytes = 4 * mmSize * mmSize
	var ptrs [3]cudart.DevicePtr
	for i := range ptrs {
		t := time.Now()
		var err error
		ptrs[i], err = rt.Malloc(nbytes)
		if err := r.end(opMalloc, t, err); err != nil {
			return err
		}
	}
	t := time.Now()
	if err := r.copied(opH2D, t, nbytes, rt.MemcpyToDevice(ptrs[0], p.a)); err != nil {
		return err
	}
	t = time.Now()
	if err := r.copied(opH2D, t, nbytes, rt.MemcpyToDevice(ptrs[1], p.b)); err != nil {
		return err
	}
	t = time.Now()
	if err := r.end(opLaunch, t, launchSgemm(rt, ptrs[0], ptrs[1], ptrs[2], mmSize)); err != nil {
		return err
	}
	t = time.Now()
	if err := r.copied(opD2H, t, nbytes, rt.MemcpyToHost(s.out, ptrs[2])); err != nil {
		return err
	}
	for _, ptr := range ptrs {
		t = time.Now()
		if err := r.end(opFree, t, rt.Free(ptr)); err != nil {
			return err
		}
	}
	r.done()
	r.matrices(1)
	if err := r.check(s.out, func(b []byte) bool { return bytes.Equal(b, p.c) }, "MM m=256 result"); err != nil {
		return err
	}
	return r.ceiling(p.a)
}

func (s *mmSession) finish(*recorder) error { return nil }
