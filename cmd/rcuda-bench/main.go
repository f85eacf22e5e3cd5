// Command rcuda-bench runs the repository's deterministic virtual-clock
// benchmark suites and keeps their committed trajectory files fresh:
//
//	batch     DNN inference loop, batched vs unbatched, both testbed links  BENCH_batching.json
//	scale     10^4–10^5 simulated broker sessions under the autoscaler     BENCH_loadscale.json
//	sched     mixed-tenant starvation under FIFO vs WFQ                     BENCH_sched.json
//	scale-1m  one million broker sessions (nightly)                         print only
//
// Every suite is a pure function of fixed seeds, so its file is
// byte-reproducible, and every suite refuses to write (or pass a check
// on) a result that breaks its gates.
//
//	rcuda-bench                    # run batch, scale and sched; refresh their files
//	rcuda-bench -suite sched       # one suite (or a comma-separated list)
//	rcuda-bench -check             # re-run and fail if a committed file is stale;
//	                               # scale rows over 10^4 sessions are presence-checked only
//	rcuda-bench -suite scale-1m    # the million-session run
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
)

// suite is one registered benchmark.
type suite struct {
	name string
	// path is the committed file the suite refreshes; "" marks a
	// print-only suite.
	path string
	// run computes the suite's file, printing its table to w. With check
	// set it may skip rows too expensive for CI, returning their keys.
	run func(w io.Writer, check bool) (f benchFile, skipped []string, err error)
	// decode parses a committed file.
	decode func(blob []byte) (benchFile, error)
}

// benchFile is a suite's own file struct; its indented JSON encoding is
// the committed file.
type benchFile interface {
	// rows splits the file into keyed rows for the freshness check: its
	// scalar fields plus one row per result.
	rows() []row
}

// decodeAs parses a committed file of type F.
func decodeAs[F benchFile](blob []byte) (benchFile, error) {
	var f F
	err := json.Unmarshal(blob, &f)
	return f, err
}

// row is one keyed entry of a bench file. A nil json marks a row that was
// not recomputed and is only checked for presence.
type row struct {
	key  string
	json []byte
}

func newRow(key string, v any) row {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return row{key: key, json: b}
}

var suites = []suite{batchSuite, scaleSuite, schedSuite, scale1mSuite}

func main() {
	var names []string
	for _, s := range suites {
		names = append(names, s.name)
	}
	sel := flag.String("suite", "batch,scale,sched", "comma-separated suites to run: "+strings.Join(names, ", "))
	check := flag.Bool("check", false, "re-run and fail if a committed file is stale instead of writing it")
	flag.Parse()

	var run []suite
	for _, name := range strings.Split(*sel, ",") {
		s, ok := lookup(name)
		if !ok {
			log.Fatalf("unknown suite %q (have %s)", name, strings.Join(names, ", "))
		}
		run = append(run, s)
	}
	failed := false
	for _, s := range run {
		if err := runSuite(s, *check, os.Stdout); err != nil {
			log.Printf("%s: %v", s.name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func lookup(name string) (suite, bool) {
	for _, s := range suites {
		if s.name == name {
			return s, true
		}
	}
	return suite{}, false
}

// runSuite runs one suite and then writes its file or, with check, holds
// it against the committed one.
func runSuite(s suite, check bool, w io.Writer) error {
	if check && s.path == "" {
		return errors.New("print-only suite has no committed file to check")
	}
	f, skipped, err := s.run(w, check)
	if err != nil || s.path == "" {
		return err
	}
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if !check {
		if err := os.WriteFile(s.path, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", s.path)
		return nil
	}

	committed, err := os.ReadFile(s.path)
	if err != nil {
		return fmt.Errorf("%v (run `make bench-%s` to generate it)", err, s.name)
	}
	old, err := s.decode(committed)
	if err != nil {
		return fmt.Errorf("parse %s: %v", s.path, err)
	}
	fresh := f.rows()
	for _, key := range skipped {
		fresh = append(fresh, row{key: key})
	}
	problems := stale(old.rows(), fresh)
	if len(problems) == 0 && len(skipped) == 0 && !bytes.Equal(blob, committed) {
		problems = append(problems, "LAYOUT: rows match but the file differs (row order or formatting)")
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s is stale: run `make bench-%s` and commit the result\n%s",
			s.path, s.name, strings.Join(problems, "\n"))
	}
	fmt.Fprintf(w, "%s is fresh\n", s.path)
	return nil
}

// stale compares recomputed rows with the committed ones by key and
// returns one line per problem: a row missing from the file, a row whose
// numbers drifted, or a committed row the suite no longer produces.
func stale(committed, fresh []row) []string {
	have := make(map[string][]byte, len(committed))
	for _, r := range committed {
		have[r.key] = r.json
	}
	produced := make(map[string]bool, len(fresh))
	var problems []string
	for _, r := range fresh {
		produced[r.key] = true
		want, ok := have[r.key]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("MISSING %s: not in the committed file", r.key))
		case r.json != nil && !bytes.Equal(r.json, want):
			problems = append(problems, fmt.Sprintf("STALE %s:\n  committed:  %s\n  recomputed: %s", r.key, want, r.json))
		}
	}
	for _, r := range committed {
		if !produced[r.key] {
			problems = append(problems, fmt.Sprintf("UNEXPECTED %s: committed but no longer produced", r.key))
		}
	}
	return problems
}

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }

func round4(x float64) float64 { return float64(int(x*10000+0.5)) / 10000 }
