// Command licmbench is the repository's end-to-end benchmark: it
// answers LICM bounds queries on one named workload for a fixed time,
// checks every answer against ground truth, and prints its metrics as
// one JSON object on the last line of standard output.
//
//	licmbench --workload scan-wide --seed 7 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run;
// --trace 1 reports the per-layer metrics of a traced run and writes
// its spans to --trace-dir in the format licmtrace summary and flame
// read. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"licm/internal/encode"
	"licm/internal/obs"
	"licm/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("licmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: scan-wide, join-budget or serve-scan")
	seed := fs.Int64("seed", 7, "workload seed: the specs asked derive from it (the store is fixed per workload)")
	seconds := fs.Float64("seconds", 10, "length of the timed phase; whole passes over the specs are answered")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 the per-layer metrics of a traced run")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	toy := fs.Bool("toy", false, "shrink the workload to smoke-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	d, ok := lookup(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "licmbench: want --workload scan-wide|join-budget|serve-scan and --trace 0|1\n")
		return 2
	}
	if *toy {
		d = d.toy()
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(d, *seed, dur, *traceDir, stderr)
	} else {
		res, err = untraced(d, *seed, dur, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "licmbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "licmbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// warmups is the number of untimed answers before the first timed
// phase, so heap growth and lazy set-up are paid outside it.
const warmups = 3

// untraced is the end-to-end run: set-up, one timed phase, the
// correctness gate.
func untraced(d def, seed int64, dur time.Duration, stderr io.Writer) (*result, error) {
	cfg := d.config()
	specs := d.specsFor(seed)
	var (
		setups []time.Duration
		heap   uint64
		ph     *phase
	)
	if d.served {
		ds, srv, err := setupServed(cfg)
		if err != nil {
			return nil, err
		}
		setups, heap = ds, liveHeap()
		warmServed(srv, specs)
		ph = runServed(srv, specs, dur, nil)
		if err := srv.stop(); err != nil {
			return nil, err
		}
	} else {
		ds, newEnc, err := setupInProcess(cfg)
		if err != nil {
			return nil, err
		}
		setups, heap = ds, liveHeap()
		warmInProcess(newEnc, cfg, specs)
		ph = runInProcess(newEnc, cfg, specs, dur, nil)
	}
	v := check(cfg, specs, ph.answers)
	report(stderr, v)
	return &result{
		Correct:   v.failed() == 0,
		Attempted: len(ph.answers),
		Failed:    v.failed(),
		Metrics:   fill(endToEnd, endToEndValues(ph, v, setups, heap)),
	}, nil
}

// traced is the per-layer run. Its timed phase alternates untraced
// and traced passes, so their latency gap is the tracing overhead. The
// served workload's server-internal layers are measured by replaying
// its specs in-process on an identical store: the server runs the same
// answer path, and its counts are the same.
func traced(d def, seed int64, dur time.Duration, traceDir string, stderr io.Writer) (*result, error) {
	cfg := d.config()
	specs := d.specsFor(seed)
	sink := &obs.CollectSink{}
	tr := obs.New(sink)
	if err := traceSetupSteps(cfg, tr, minSetups); err != nil {
		return nil, err
	}
	newEnc, err := cfg.Encoder()
	if err != nil {
		return nil, err
	}
	var ph, solved *phase
	if d.served {
		srv, err := startServer(cfg)
		if err != nil {
			return nil, err
		}
		warmServed(srv, specs)
		ph = runServed(srv, specs, dur, tr)
		if err := srv.stop(); err != nil {
			return nil, err
		}
		solved = runInProcess(newEnc, cfg, specs, 0, tr)
	} else {
		warmInProcess(newEnc, cfg, specs)
		ph = runInProcess(newEnc, cfg, specs, dur, tr)
		solved = ph
	}
	all := ph.answers
	if d.served {
		all = append(append([]answer(nil), ph.answers...), solved.answers...)
	}
	v := check(cfg, specs, all)
	report(stderr, v)

	var buf bytes.Buffer
	self, err := selfTimes(sink, &buf)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", d.name, seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "licmbench: wrote trace %s\n", path)
	return &result{
		Correct:   v.failed() == 0,
		Attempted: len(all),
		Failed:    v.failed(),
		Metrics:   fill(perLayer, layerValues(ph, solved, self, minSetups)),
	}, nil
}

func warmInProcess(newEnc func() *encode.Encoded, cfg workload.Config, specs []workload.Spec) {
	for i := 0; i < warmups && i < len(specs); i++ {
		answerInProcess(newEnc, cfg, specs[i], nil, "warm")
	}
}

func warmServed(s *server, specs []workload.Spec) {
	for i := 0; i < warmups && i < len(specs); i++ {
		answerServed(s.client, specs[i], nil, "warm")
	}
}

// report prints the gate's findings to stderr.
func report(w io.Writer, v verdict) {
	for _, r := range v.reasons {
		fmt.Fprintln(w, "licmbench: FAIL", r)
	}
}
