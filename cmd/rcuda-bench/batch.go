package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/workload"
)

// batchSuite runs the DNN inference-loop workload through the full
// middleware over the two testbed interconnects, batched and unbatched, on
// the simulation clock. Every cell's output must be bit-exact against the
// CPU oracle.
var batchSuite = suite{
	name:   "batch",
	path:   "BENCH_batching.json",
	run:    runBatch,
	decode: decodeAs[batchFile],
}

// batchSeed seeds the workload's weights and inputs.
const batchSeed = 7

// batchResult is one (network, mode) cell of the trajectory.
type batchResult struct {
	Network   string `json:"network"`
	Batched   bool   `json:"batched"`
	ElapsedUS int64  `json:"elapsed_us"`
	Messages  int64  `json:"messages"`
	BytesSent int64  `json:"bytes_sent"`
	BytesRecv int64  `json:"bytes_recv"`
	Digest    string `json:"digest"`
	Verified  bool   `json:"verified"`
	// ModelUS is perfmodel's analytic wire time for the same session; the
	// gap to ElapsedUS is the device residual, near zero by construction.
	ModelUS int64 `json:"model_us"`
}

type batchFile struct {
	Workload string        `json:"workload"`
	Layers   int           `json:"layers"`
	Requests int           `json:"requests"`
	Polls    int           `json:"polls"`
	Seed     int64         `json:"seed"`
	Results  []batchResult `json:"results"`
	// SpeedupGigaE/Speedup40GI are the headline batched-over-unbatched
	// whole-session ratios, the numbers regressions watch.
	SpeedupGigaE float64 `json:"speedup_gigae"`
	Speedup40GI  float64 `json:"speedup_40gi"`
}

func (f batchFile) rows() []row {
	header := f
	header.Results = nil
	rows := []row{newRow("header", header)}
	for _, r := range f.Results {
		rows = append(rows, newRow(fmt.Sprintf("%s/%s", r.Network, batchMode(r.Batched)), r))
	}
	return rows
}

func batchMode(batched bool) string {
	if batched {
		return "batched"
	}
	return "unbatched"
}

func runBatch(out io.Writer, _ bool) (benchFile, []string, error) {
	f := batchFile{
		Workload: "dnn-inference-loop",
		Layers:   workload.DefaultInferenceLayers,
		Requests: workload.DefaultInferenceRequests,
		Polls:    workload.DefaultInferencePolls,
		Seed:     batchSeed,
	}
	elapsed := map[string]map[bool]float64{}

	w := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "network\tmode\telapsed\tmessages\tbytes out/in\tdigest")
	for _, link := range netsim.Testbed() {
		elapsed[link.Name()] = map[bool]float64{}
		for _, batched := range []bool{false, true} {
			rep, err := workload.RunInference(workload.InferenceOptions{
				Link: link, Batched: batched,
				Layers: f.Layers, Requests: f.Requests, Polls: f.Polls, Seed: f.Seed,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("%s %s: %v", link.Name(), batchMode(batched), err)
			}
			if !rep.Verified {
				return nil, nil, fmt.Errorf("%s %s: output not bit-exact against the oracle", link.Name(), batchMode(batched))
			}
			fmt.Fprintf(w, "%s\t%s\t%v\t%d\t%d/%d\t%016x\n",
				link.Name(), batchMode(batched), rep.Elapsed, rep.Messages, rep.BytesSent, rep.BytesRecv, rep.Digest)
			elapsed[link.Name()][batched] = float64(rep.Elapsed)
			f.Results = append(f.Results, batchResult{
				Network:   link.Name(),
				Batched:   batched,
				ElapsedUS: rep.Elapsed.Microseconds(),
				Messages:  rep.Messages,
				BytesSent: rep.BytesSent,
				BytesRecv: rep.BytesRecv,
				Digest:    fmt.Sprintf("%016x", rep.Digest),
				Verified:  rep.Verified,
				ModelUS:   perfmodel.InferenceNetTime(link, rep.Spec).Microseconds(),
			})
		}
	}
	w.Flush()

	f.SpeedupGigaE = round2(elapsed["GigaE"][false] / elapsed["GigaE"][true])
	f.Speedup40GI = round2(elapsed["40GI"][false] / elapsed["40GI"][true])
	fmt.Fprintf(out, "\nspeedup batched vs unbatched: GigaE %.2fx, 40GI %.2fx\n",
		f.SpeedupGigaE, f.Speedup40GI)
	return f, nil, nil
}
