package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"licm/internal/anon"
	"licm/internal/dataset"
	"licm/internal/encode"
	"licm/internal/hierarchy"
	"licm/internal/obs"
	"licm/internal/seedflag"
	"licm/internal/serve"
	"licm/internal/workload"
)

// Set-up is timed as the median of several set-ups in one run: one
// takes 3-60 ms, too short to time once.
const (
	minSetups   = 11
	maxSetups   = 101
	setupBudget = time.Second
)

// minPasses is the fewest passes over the spec set a phase makes, so
// every spec is answered at least twice and the cross-pass check has
// something to compare.
const minPasses = 2

// rtSample is a reading of the runtime counters a phase reports.
type rtSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// liveHeap forces two collections, so objects freed by finalizers or
// swept late in the first are gone, and returns the live heap the
// second marked.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// phase is one timed stretch of answers.
type phase struct {
	answers  []answer // in the order asked; whole passes only
	wall     time.Duration
	from, to rtSample
}

// timeSetups repeats one set-up until enough samples are in and
// returns each one's duration and the last set-up's result; release
// is called with every other result.
func timeSetups[T any](once func() (T, error), release func(T)) ([]time.Duration, T, error) {
	var ds []time.Duration
	var total time.Duration
	var last T
	for len(ds) < minSetups || (total < setupBudget && len(ds) < maxSetups) {
		if len(ds) > 0 {
			release(last)
		}
		t := time.Now()
		v, err := once()
		d := time.Since(t)
		if err != nil {
			return nil, last, err
		}
		ds = append(ds, d)
		total += d
		last = v
	}
	return ds, last, nil
}

// setupInProcess is Encoder() plus one warm encode: what a process
// pays before it can answer.
func setupInProcess(cfg workload.Config) ([]time.Duration, func() *encode.Encoded, error) {
	return timeSetups(func() (func() *encode.Encoded, error) {
		newEnc, err := cfg.Encoder()
		if err != nil {
			return nil, err
		}
		newEnc()
		return newEnc, nil
	}, func(func() *encode.Encoded) {})
}

// traceSetupSteps times the three set-up steps Encoder() runs for the
// k scheme, one span each, so the traced run can split setup_s.
func traceSetupSteps(cfg workload.Config, tr *obs.Tracer, reps int) error {
	for i := 0; i < reps; i++ {
		str := tr.Fork(nil, obs.Str("answer_id", "setup-"+strconv.Itoa(i)))
		root := str.Start("bench.setup")
		dcfg := dataset.DefaultConfig(cfg.NumTransactions)
		dcfg.NumItems = cfg.NumItems
		dcfg.Seed = seedflag.Derive(cfg.Seed, seedflag.DatasetStream)
		s := root.Start("setup.generate")
		d, err := dataset.Generate(dcfg)
		s.End()
		if err != nil {
			return err
		}
		s = root.Start("setup.anonymize")
		h, err := hierarchy.Build(cfg.NumItems, cfg.HierarchyFanout, nil)
		if err != nil {
			return err
		}
		g, err := anon.KAnonymize(d, h, cfg.K)
		s.End()
		if err != nil {
			return err
		}
		s = root.Start("setup.first_encode")
		encode.Generalized(g, d.Items)
		s.End()
		root.End()
	}
	return nil
}

// passTracer is the tracer of one pass: with tracing on, odd passes
// are traced and even ones not, so both see the same machine and the
// gap between them is the tracing overhead.
func passTracer(tr *obs.Tracer, pass int) *obs.Tracer {
	if pass%2 == 0 {
		return nil
	}
	return tr
}

// runInProcess answers whole passes over specs on the calling
// goroutine until at least dur has passed.
func runInProcess(newEnc func() *encode.Encoded, cfg workload.Config, specs []workload.Spec, dur time.Duration, tr *obs.Tracer) *phase {
	ph := &phase{from: readRuntime()}
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < dur; pass++ {
		for i, sp := range specs {
			a := answerInProcess(newEnc, cfg, sp, passTracer(tr, pass), fmt.Sprintf("p%d-s%d", pass, sp.ID))
			a.spec = i
			ph.answers = append(ph.answers, a)
		}
	}
	ph.wall = time.Since(start)
	ph.to = readRuntime()
	return ph
}

// server is an in-process licmd at its default settings.
type server struct {
	srv    *serve.Server
	client *serve.Client
}

func startServer(cfg workload.Config) (*server, error) {
	cfg.Metrics = obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		Workload:        cfg,
		Workers:         2,
		DefaultDeadline: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // the start error is the one to report
		return nil, err
	}
	s := &server{srv: srv, client: &serve.Client{BaseURL: addr}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := s.client.Readyz(ctx)
		cancel()
		if err == nil {
			return s, nil
		}
		if time.Now().After(deadline) {
			_ = s.stop() // the readiness error is the one to report
			return nil, fmt.Errorf("server never became ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.srv.Drain(ctx)
}

// setupServed is serve.New plus Start until /readyz answers 200.
func setupServed(cfg workload.Config) ([]time.Duration, *server, error) {
	return timeSetups(func() (*server, error) {
		return startServer(cfg)
	}, func(s *server) {
		_ = s.stop() // an idle server; its drain cannot time out
	})
}

// clients is the number of closed-loop connections of the served
// workload: one per vCPU of the 2-vCPU machines it was sized on.
const clients = 2

// runServed answers whole passes over specs through clients
// closed-loop connections until at least dur has passed. Each client
// takes the next ticket; ticket t asks spec t mod len(specs).
func runServed(s *server, specs []workload.Spec, dur time.Duration, tr *obs.Tracer) *phase {
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		done    []answer // indexed by ticket
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return 0, false
		}
		if next%len(specs) == 0 && next/len(specs) >= minPasses && time.Since(start) >= dur {
			stopped = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	ph := &phase{from: readRuntime()}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, ok := take()
				if !ok {
					return
				}
				i, pass := t%len(specs), t/len(specs)
				a := answerServed(s.client, specs[i], passTracer(tr, pass), fmt.Sprintf("p%d-s%d", pass, specs[i].ID))
				a.spec = i
				mu.Lock()
				for len(done) <= t {
					done = append(done, answer{})
				}
				done[t] = a
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.to = readRuntime()
	ph.answers = done
	return ph
}

// answerServed asks one spec over HTTP; latency is the round trip the
// client observes.
func answerServed(c *serve.Client, sp workload.Spec, tr *obs.Tracer, id string) answer {
	tr = tr.Fork(nil, obs.Str("answer_id", id))
	span := tr.Start("serve.query", obs.Str("query", sp.Name()))
	t := time.Now()
	resp, err := c.Query(context.Background(), &serve.Request{Schema: workload.SpecSchema, Spec: sp})
	a := answer{latency: time.Since(t), traced: tr != nil}
	span.End()
	switch {
	case err != nil:
		a.err = err
	case resp.Err != nil:
		a.err = fmt.Errorf("%s: server error %s: %s", sp.Name(), resp.Err.Code, resp.Err.Message)
	default:
		a.quality = resp.Quality
		a.lb, a.ub = resp.Lb, resp.Ub
		a.infeasible = resp.Infeasible
		a.serverNs, a.queueNs = resp.LatencyNs, resp.QueueNs
		a.shed = resp.Shed
	}
	return a
}
