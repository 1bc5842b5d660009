package main

import (
	"fmt"
	"math/rand"
	"slices"

	"licm/internal/seedflag"
	"licm/internal/solver"
	"licm/internal/workload"
)

// storeSeed is the master seed every workload's store is built from:
// the seed of the committed query set BENCH_workload.json. The run
// seed draws only the specs, so runs on different seeds ask different
// questions of the same data.
const storeSeed = 7

// def is one named benchmark workload: the store it loads, the spec
// shapes it asks, and how the answers are driven.
type def struct {
	name string
	why  string
	// trans and items size the k-anonymized store (k=4, fanout 8).
	trans, items int
	// shapes are the kind/agg shapes the workload asks, as in
	// "q1/count"; a pass asks the same number of specs of each.
	shapes []string
	// specs is the number of distinct specs answered per pass. Each
	// spec's answers form a cluster of latencies; with specs = 5 mod 10
	// the median and the 90th percentile of a run fall in the middle of
	// one spec's cluster instead of on the gap between two.
	specs int
	// pinned draws the specs from storeSeed instead of the run seed.
	pinned bool
	// served drives the answers through an in-process licmd over
	// loopback instead of calling the answer path directly.
	served bool
}

var defs = []def{
	{
		name:   "scan-wide",
		why:    "large k-anon store, q1/q2 scans: encode, translate and prune scale with the store",
		trans:  1500,
		items:  60,
		shapes: []string{"q1/count", "q1/sum", "q2/count"},
		specs:  105,
	},
	{
		// q3 answers cost 4-850 ms and reach q-errors of 1-45 depending
		// on the spec, so the few a run can afford, drawn afresh per
		// seed, swing every metric by more than any usable bound. The
		// workload pins the q3 specs of the committed query set; the
		// run seed only orders them.
		name:   "join-budget",
		why:    "small store, the committed q3 joins that spend the node budget: search dominates",
		trans:  150,
		items:  40,
		shapes: []string{"q3/count"},
		specs:  15,
		pinned: true,
	},
	{
		name:   "serve-scan",
		why:    "licmd defaults behind HTTP, two closed-loop clients on one store: serving overhead",
		trans:  300,
		items:  60,
		shapes: []string{"q1/count", "q1/sum", "q2/count"},
		specs:  105,
		served: true,
	},
}

func lookup(name string) (def, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return def{}, false
}

// toy shrinks a workload to smoke-test size: same shapes and code
// path, one spec per shape and width band, a tiny store.
func (d def) toy() def {
	d.trans, d.items = 40, 20
	d.specs = 1
	return d
}

// config is the store and solver configuration licmd uses by default:
// solver defaults with a 300 000 node budget and no witness
// completion, 30 Monte-Carlo samples, no deadline and no trace sink.
func (d def) config() workload.Config {
	opts := solver.DefaultOptions()
	opts.MaxNodes = 300_000
	opts.CompleteWitness = false
	return workload.Config{
		NumTransactions: d.trans,
		NumItems:        d.items,
		HierarchyFanout: 8,
		Scheme:          "k",
		K:               4,
		Seed:            storeSeed,
		MCSamples:       30,
		Solver:          opts,
	}.Normalized()
}

// widthBands splits the Pa window widths GenerateSpecs draws for q1
// and q2 (0.5-20% of the 1000-wide location domain) into equal bands.
// A scan's latency grows with its Pa width from about 25 to 120 ms on
// scan-wide, so a pass asks the same number of specs from each band
// and the mix of cheap and costly specs does not change with the seed.
// q3 specs are pinned and take one band.
const widthBands = 5

func band(sp workload.Spec) int {
	if sp.Kind == "q3" {
		return 0
	}
	return min(int(sp.PaHi-sp.PaLo)*widthBands/200, widthBands-1)
}

// specsFor draws the workload's specs from the seeded generator on the
// workload stream, as licmgen -queries does: for each shape and width
// band, the first specs in draw order, shuffled by seed. The generator
// draws one spec at a time, so a longer draw extends a shorter one.
func (d def) specsFor(seed int64) []workload.Spec {
	src, bands := seed, widthBands
	if d.pinned {
		src, bands = storeSeed, 1
	}
	per := max(d.specs/(len(d.shapes)*bands), 1)
	want := per * len(d.shapes) * bands
	var out []workload.Spec
	for n := want * 8; len(out) < want; n *= 2 {
		out = out[:0]
		taken := map[string]int{}
		for _, sp := range workload.GenerateSpecs(n, seedflag.Derive(src, seedflag.WorkloadStream), 1000, 40) {
			shape := sp.Kind + "/" + sp.Agg
			key := fmt.Sprintf("%s/%d", shape, band(sp))
			if slices.Contains(d.shapes, shape) && taken[key] < per {
				taken[key]++
				out = append(out, sp)
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
