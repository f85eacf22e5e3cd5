package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"rcuda/internal/protocol"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func shortRun(t *testing.T, workload string, trace, corrupt bool) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: 7, duration: 400 * time.Millisecond,
		trace: trace, setups: 2, corrupt: corrupt}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

// TestEveryMetricPrinted runs each workload briefly in both modes and checks
// the result against BENCHMARK.json: every metric it names is printed with
// its unit and nothing else is, and the traced run joins every client call
// to exactly one server request on every connection.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res := shortRun(t, w.Name, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if !trace {
				continue
			}
			if len(res.joins) == 0 {
				t.Errorf("%s: traced run joined no connections", w.Name)
			}
			for _, j := range res.joins {
				if !j.ok() || j.replied == 0 {
					t.Errorf("%s: connection %d joined badly: %+v", w.Name, j.conn, j)
				}
			}
		}
	}
}

// TestCorruptedReadbackFails flips a byte of each tenant's first readback
// and expects the run to report it.
func TestCorruptedReadbackFails(t *testing.T) {
	for _, w := range workloads {
		res := shortRun(t, w.name, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted readback passed: correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
	}
}

// TestHalvesJoinByPosition checks the join on a hand-built dialogue: an
// init, a reply-less finalize, and a server reply with no request.
func TestHalvesJoinByPosition(t *testing.T) {
	send := func(op protocol.Op) msgSpan { return msgSpan{send: true, op: op} }
	recv := func(op protocol.Op) msgSpan { return msgSpan{op: op} }
	hello, malloc, fin := protocol.OpInit, protocol.OpMalloc, protocol.OpFinalize
	cli := halves([]msgSpan{send(hello), recv(hello), send(malloc), recv(malloc), send(fin)}, false)
	srv := halves([]msgSpan{recv(hello), send(hello), recv(malloc), send(malloc), recv(fin)}, true)
	if len(cli) != 3 || len(srv) != 3 || cli[2].replied || srv[2].replied || !cli[1].replied {
		t.Fatalf("client %+v server %+v", cli, srv)
	}
	if orphan := halves([]msgSpan{send(hello)}, true); len(orphan) != 1 || !orphan[0].replied {
		t.Fatalf("orphan reply: %+v", orphan)
	}
}

// TestRecordingAllocatesNothing guards allocs_per_call: the benchmark's own
// per-call work (recording, verification, the raw ceiling transfer) must
// not add to the process-wide allocation count.
func TestRecordingAllocatesNothing(t *testing.T) {
	raw, err := newRawPair()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.close()
	r, err := newRecorder(time.Second, raw, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.collect()
	data := make([]byte, 4096)
	n := testing.AllocsPerRun(200, func() {
		t0 := time.Now()
		if err := r.copied(opD2H, t0, len(data), nil); err != nil {
			t.Fatal(err)
		}
		r.done()
		if err := r.check(data, func(b []byte) bool { return len(b) == len(data) }, "readback"); err != nil {
			t.Fatal(err)
		}
		if err := r.ceiling(data); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("recording allocates %v times per call", n)
	}
}
