package main

import (
	"bytes"
	"math"
	"sort"
	"time"

	"licm/internal/obs"
	"licm/internal/solver"
	"licm/internal/tracean"
)

// metricDef declares one reported metric. BENCHMARK.json lists the
// same names, units and directions; the smoke tests hold the two
// together.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees, reported by untraced
// runs. failed_share would read 0 on a healthy run, so the share of
// answers that passed the gate is reported instead; failures also
// appear in the result's "failed" count.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"answer_ms_p50", "ms", "lower"},
	{"answer_ms_p90", "ms", "lower"},
	{"answers_per_s", "1/s", "higher"},
	{"exact_share", "ratio", "higher"},
	{"proven_share", "ratio", "higher"},
	{"ok_share", "ratio", "higher"},
	{"qerr_mean", "ratio", "lower"},
	{"alloc_mb_per_answer", "MB", "lower"},
	{"store_heap_mb", "MB", "lower"},
}

// perLayer is reported by traced runs, as means per answer unless the
// name says otherwise.
var perLayer = []metricDef{
	{"setup.generate_ms", "ms", "lower"},
	{"setup.anonymize_ms", "ms", "lower"},
	{"setup.first_encode_ms", "ms", "lower"},
	{"encode.ms", "ms", "lower"},
	{"encode.vars", "count", "lower"},
	{"encode.cons", "count", "lower"},
	{"translate.ms", "ms", "lower"},
	{"translate.vars_added", "count", "lower"},
	{"translate.cons_added", "count", "lower"},
	{"prune.ms", "ms", "lower"},
	{"prune.vars_kept_ratio", "ratio", "lower"},
	{"presolve.ms", "ms", "lower"},
	{"presolve.fixed", "count", "higher"},
	{"search.ms", "ms", "lower"},
	{"search.nodes", "count", "lower"},
	{"search.propagations", "count", "lower"},
	{"search.ns_per_node", "ns", "lower"},
	{"search.lp_solves", "count", "lower"},
	{"search.components", "count", "higher"},
	{"super.ms", "ms", "lower"},
	{"super.ladder_overhead_ms", "ms", "lower"},
	{"explain.ms", "ms", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.cpu_share", "ratio", "lower"},
	{"serve.server_ms", "ms", "lower"},
	{"serve.queue_ms", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.shed_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill copies values into the printed form, one entry per declared
// metric; a missing value is a bug in the benchmark.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("licmbench: metric " + d.name + " not computed")
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func ms(ns float64) float64 { return ns / 1e6 }

// endToEndValues computes the user-visible metrics of an untraced
// phase.
func endToEndValues(ph *phase, v verdict, setups []time.Duration, heap uint64) map[string]float64 {
	var lat []float64
	var exact, proven int
	var qsum float64
	var qn int
	for i, a := range ph.answers {
		if a.err == nil {
			lat = append(lat, float64(a.latency))
		}
		switch {
		case v.bad[i]:
		case a.quality == "exact":
			// A proven exact answer is the true range, so its q-error
			// is 1; the Monte-Carlo range the gate falls back to on
			// large stores is only a subset of it.
			exact++
			proven++
			qsum++
			qn++
		case a.quality == "proven-interval":
			proven++
			qsum += v.qerr[a.spec]
			qn++
		}
	}
	sort.Float64s(lat)
	n := float64(len(ph.answers))
	qmean := 0.0
	if qn > 0 {
		qmean = qsum / float64(qn)
	}
	return map[string]float64{
		"setup_s":             median(setups).Seconds(),
		"answer_ms_p50":       ms(quantile(lat, 0.50)),
		"answer_ms_p90":       ms(quantile(lat, 0.90)),
		"answers_per_s":       n / ph.wall.Seconds(),
		"exact_share":         float64(exact) / n,
		"proven_share":        float64(proven) / n,
		"ok_share":            1 - float64(v.failed())/n,
		"qerr_mean":           qmean,
		"alloc_mb_per_answer": float64(ph.to.allocBytes-ph.from.allocBytes) / n / 1e6,
		"store_heap_mb":       float64(heap) / 1e6,
	}
}

// selfTimes writes the collected spans in the JSONL trace format
// licmtrace reads and returns each span name's total self time.
func selfTimes(sink *obs.CollectSink, w *bytes.Buffer) (map[string]int64, error) {
	js := obs.NewJSONLSink(w)
	for _, e := range sink.Events() {
		js.Emit(&e)
	}
	if err := js.Err(); err != nil {
		return nil, err
	}
	tr, err := tracean.ReadTrace(bytes.NewReader(w.Bytes()))
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, r := range tr.Rollups() {
		out[r.Name] = r.SelfNs
	}
	return out, nil
}

// layerValues computes the per-layer metrics of a traced run. ph is
// its timed phase (GC figures, tracing overhead, serving figures when
// served); solved holds the in-process answers the solver layers are
// read from, with the span self times of its traced answers in self;
// the set-up steps ran setupReps times.
func layerValues(ph, solved *phase, self map[string]int64, setupReps int) map[string]float64 {
	// The spans cover only the traced answers, so every layer figure is
	// taken over those; the counts are the same on every pass.
	var answers []answer
	for _, a := range solved.answers {
		if a.traced {
			answers = append(answers, a)
		}
	}
	n := float64(len(answers))
	var encVars, encCons, varsAdded, consAdded, fixed, comps float64
	var pruneNs, presolveNs, searchNs, nodes, props, lps, ladderNs float64
	var before, kept float64
	for _, a := range answers {
		encVars += float64(a.encVars)
		encCons += float64(a.encCons)
		varsAdded += float64(a.queryVars - a.encVars)
		consAdded += float64(a.queryCons - a.encCons)
		ladderNs += float64(a.superNs - int64(a.min.TotalTime) - int64(a.max.TotalTime))
		for _, s := range []solver.Stats{a.min, a.max} {
			pruneNs += float64(s.PruneTime)
			presolveNs += float64(s.PresolveTime)
			searchNs += float64(s.SearchTime)
			nodes += float64(s.Nodes)
			props += float64(s.Propagations)
			lps += float64(s.LPSolves)
			fixed += float64(s.FixedByPresolve)
			comps += float64(s.Components)
			before += float64(s.VarsBefore)
			kept += float64(s.VarsAfterPrune)
		}
	}
	keptRatio := 0.0
	if before > 0 {
		keptRatio = kept / before
	}
	nsPerNode := 0.0
	if nodes > 0 {
		nsPerNode = searchNs / nodes
	}
	reps := float64(setupReps)
	var plainNs, tracedNs, plainN, tracedN float64
	for _, a := range ph.answers {
		if a.traced {
			tracedNs += float64(a.latency)
			tracedN++
		} else {
			plainNs += float64(a.latency)
			plainN++
		}
	}
	vals := map[string]float64{
		"setup.generate_ms":        ms(float64(self["setup.generate"]) / reps),
		"setup.anonymize_ms":       ms(float64(self["setup.anonymize"]) / reps),
		"setup.first_encode_ms":    ms(float64(self["setup.first_encode"]) / reps),
		"encode.ms":                ms(float64(self["encode"]) / n),
		"encode.vars":              encVars / n,
		"encode.cons":              encCons / n,
		"translate.ms":             ms(float64(self["translate"]) / n),
		"translate.vars_added":     varsAdded / n,
		"translate.cons_added":     consAdded / n,
		"prune.ms":                 ms(pruneNs / n),
		"prune.vars_kept_ratio":    keptRatio,
		"presolve.ms":              ms(presolveNs / n),
		"presolve.fixed":           fixed / n,
		"search.ms":                ms(searchNs / n),
		"search.nodes":             nodes / n,
		"search.propagations":      props / n,
		"search.ns_per_node":       nsPerNode,
		"search.lp_solves":         lps / n,
		"search.components":        comps / n,
		"super.ms":                 ms(float64(self["super"]) / n),
		"super.ladder_overhead_ms": ms(ladderNs / n),
		"explain.ms":               ms(float64(self["explain"]) / n),
		"gc.cycles":                float64(ph.to.gcCycles-ph.from.gcCycles) / float64(len(ph.answers)),
		"gc.cpu_share":             share(ph.to.gcCPU-ph.from.gcCPU, ph.to.totalCPU-ph.from.totalCPU),
		// In a closed loop answers_per_s is inversely proportional to
		// the mean latency, so this is the answers_per_s gap.
		"trace.overhead_share": 1 - (plainNs/plainN)/(tracedNs/tracedN),
		"serve.server_ms":      0,
		"serve.queue_ms":       0,
		"serve.overhead_ms":    0,
		"serve.shed_share":     0,
	}
	if ph != solved {
		var server, queue, overhead, shed float64
		for _, a := range ph.answers {
			server += float64(a.serverNs)
			queue += float64(a.queueNs)
			overhead += float64(int64(a.latency) - a.serverNs)
			if a.shed {
				shed++
			}
		}
		m := float64(len(ph.answers))
		vals["serve.server_ms"] = ms(server / m)
		vals["serve.queue_ms"] = ms(queue / m)
		vals["serve.overhead_ms"] = ms(overhead / m)
		vals["serve.shed_share"] = shed / m
	}
	return vals
}

func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}
