package main

import (
	"context"
	"time"

	"licm/internal/core"
	"licm/internal/encode"
	"licm/internal/explain"
	"licm/internal/obs"
	"licm/internal/seedflag"
	"licm/internal/solver"
	"licm/internal/super"
	"licm/internal/workload"
)

// answer is one answered spec with the layer figures read around it.
type answer struct {
	spec       int // index into the run's spec slice
	latency    time.Duration
	quality    string
	lb, ub     int64
	infeasible bool
	err        error
	traced     bool

	// In-process answers only: store size after encode and after the
	// query translation, and both sides' solver stats.
	encVars, encCons     int
	queryVars, queryCons int
	min, max             solver.Stats
	superNs              int64

	// Served answers only.
	serverNs, queueNs int64
	shed              bool
}

// same reports whether two answers of one spec agree on the result.
func (a *answer) same(b *answer) bool {
	return a.quality == b.quality && a.lb == b.lb && a.ub == b.ub && a.infeasible == b.infeasible
}

// answerInProcess runs the sequence serve.answer runs: fresh encoding
// from the factory, spec translation, problem build, supervised
// bounds with the sampled fallback and an explain recorder, explain
// report. tr is nil on untraced answers; on traced ones every call
// gets one span stamped with the answer id.
func answerInProcess(newEnc func() *encode.Encoded, cfg workload.Config, sp workload.Spec, tr *obs.Tracer, id string) answer {
	tr = tr.Fork(nil, obs.Str("answer_id", id))
	root := tr.Start("bench.answer", obs.Str("query", sp.Name()))
	start := time.Now()

	s := root.Start("encode")
	enc := newEnc()
	s.End()
	a := answer{encVars: enc.DB.NumVars(), encCons: enc.DB.NumConstraints(), traced: tr != nil}

	s = root.Start("translate")
	obj, _, err := sp.Build(enc)
	s.End()
	if err != nil {
		a.err = err
		root.End()
		return a
	}
	a.queryVars, a.queryCons = enc.DB.NumVars(), enc.DB.NumConstraints()

	s = root.Start("problem")
	p := core.BuildProblem(enc.DB, obj)
	s.End()

	opts := cfg.Solver
	xrec := &solver.ExplainRecorder{}
	opts.Explain = xrec
	scfg := super.Config{
		Solver: opts,
		Sample: super.MCFallback(enc, obj, seedflag.Derive(cfg.Seed, seedflag.FallbackStream), cfg.MCSamples),
	}
	s = root.Start("super")
	t := time.Now()
	out := super.Bounds(context.Background(), p, scfg)
	a.superNs = int64(time.Since(t))
	s.End()

	s = root.Start("explain")
	explain.Build(sp.Name(), xrec)
	s.End()

	a.latency = time.Since(start)
	root.End()
	a.quality = out.Quality.String()
	a.lb, a.ub = out.Interval()
	a.infeasible = out.Infeasible
	a.min, a.max = out.Min.Stats, out.Max.Stats
	return a
}
