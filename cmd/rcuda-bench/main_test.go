package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcuda/internal/loadgen"
	"rcuda/internal/sched"
)

func TestStaleReportsDriftAndMissingRows(t *testing.T) {
	committed := []row{
		{key: "header", json: []byte(`{"harness":"v1"}`)},
		{key: "a", json: []byte(`{"n":1}`)},
		{key: "gone", json: []byte(`{"n":2}`)},
	}
	fresh := []row{
		{key: "header", json: []byte(`{"harness":"v1"}`)},
		{key: "a", json: []byte(`{"n":3}`)},
		{key: "new", json: []byte(`{"n":4}`)},
	}
	got := stale(committed, fresh)
	want := []string{"STALE a", "MISSING new", "UNEXPECTED gone"}
	if len(got) != len(want) {
		t.Fatalf("problems %q, want %d", got, len(want))
	}
	for i, prefix := range want {
		if !strings.HasPrefix(got[i], prefix) {
			t.Fatalf("problem %d = %q, want prefix %q", i, got[i], prefix)
		}
	}
	if p := stale(committed, committed); len(p) != 0 {
		t.Fatalf("identical rows reported %q", p)
	}
}

func TestStalePresenceOnlyRows(t *testing.T) {
	committed := []row{{key: "big", json: []byte(`{"n":1}`)}}
	if p := stale(committed, []row{{key: "big"}}); len(p) != 0 {
		t.Fatalf("a present uncomputed row must pass whatever its numbers, got %q", p)
	}
	p := stale(nil, []row{{key: "big"}})
	if len(p) != 1 || !strings.HasPrefix(p[0], "MISSING big") {
		t.Fatalf("an absent uncomputed row must be reported missing, got %q", p)
	}
}

// A scale check re-runs the rows at or under the 10^4 cap and only
// requires the larger ones to be present: doctoring a 10^5 row goes
// unnoticed, but dropping one or doctoring a smoke row does not.
func TestScaleCheckPresenceChecksRowsOverCap(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", scaleSuite.path))
	if err != nil {
		t.Fatal(err)
	}
	var f scaleFile
	if err := json.Unmarshal(blob, &f); err != nil {
		t.Fatal(err)
	}
	var kept []scaleResult
	for _, sr := range f.Scenarios {
		switch sr.Name {
		case "smoke-poisson":
			sr.Spills++
		case "scale-100k":
			if sr.Sessions <= scaleCheckCap {
				t.Fatalf("%s has %d sessions, expected over the cap", sr.Name, sr.Sessions)
			}
			sr.ElapsedMS *= 2
		case "scale-100k-classes":
			continue
		}
		kept = append(kept, sr)
	}
	f.Scenarios = kept
	doctored, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	s := scaleSuite
	s.path = filepath.Join(t.TempDir(), "BENCH_loadscale.json")
	if err := os.WriteFile(s.path, doctored, 0o644); err != nil {
		t.Fatal(err)
	}

	err = runSuite(s, true, io.Discard)
	if err == nil {
		t.Fatal("check passed on a doctored file")
	}
	msg := err.Error()
	for _, want := range []string{"STALE smoke-poisson", "MISSING scale-100k-classes"} {
		if !strings.Contains(msg, want) {
			t.Errorf("check error lacks %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "scale-100k:") {
		t.Errorf("over-cap row was recomputed:\n%s", msg)
	}
}

func TestSchedGatesRejectDoctoredResults(t *testing.T) {
	starvation := gates{minP99Improvement: 5, maxThroughputDelta: 0.10}
	share := gates{maxThroughputDelta: 0.10, servedRatio: 2, servedRatioTol: 0.05}
	served := func(a, b uint64) *sched.SimResult {
		return &sched.SimResult{Tenants: []sched.TenantResult{{Served: a}, {Served: b}}}
	}
	cases := []struct {
		name string
		g    gates
		sr   schedResult
		wfq  *sched.SimResult
		ok   bool
	}{
		{"starvation passes", starvation, schedResult{RTP99ImprovementX: 5, ThroughputDeltaFrac: 0.10}, nil, true},
		{"p99 under 5x", starvation, schedResult{RTP99ImprovementX: 4.99, ThroughputDeltaFrac: 0.01}, nil, false},
		{"throughput off by over 10%", starvation, schedResult{RTP99ImprovementX: 60, ThroughputDeltaFrac: 0.1001}, nil, false},
		{"share passes", share, schedResult{}, served(2000, 1000), true},
		{"share over 2:1+5%", share, schedResult{}, served(2110, 1000), false},
		{"share under 2:1-5%", share, schedResult{}, served(1890, 1000), false},
		{"share throughput off", share, schedResult{ThroughputDeltaFrac: 0.2}, served(2000, 1000), false},
	}
	for _, c := range cases {
		if err := c.g.check(c.sr, c.wfq); (err == nil) != c.ok {
			t.Errorf("%s: check = %v", c.name, err)
		}
	}
}

func TestScaleGateRejectsLostOrUnplacedSessions(t *testing.T) {
	if err := scaleGate(&loadgen.Result{}); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	if scaleGate(&loadgen.Result{LostDurable: 1}) == nil {
		t.Fatal("a lost durable session passed the gate")
	}
	if scaleGate(&loadgen.Result{Unplaced: 1}) == nil {
		t.Fatal("an unplaced session passed the gate")
	}
}
