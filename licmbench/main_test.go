package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"licm/internal/workload"
)

// benchmarkFile is the part of BENCHMARK.json the smoke tests compare
// against the command's declarations.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runToy runs one workload at smoke-test size and decodes its result.
func runToy(t *testing.T, workload, trace, seed string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--toy", "--seconds", "0", "--trace", trace,
		"--seed", seed, "--trace-dir", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d\nstderr:\n%s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var r result
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last stdout line is not a result: %v\n%s", err, out.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%v: correct=%v attempted=%d failed=%d", args, r.Correct, r.Attempted, r.Failed)
	}
	return r
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, d := range defs {
		for trace, want := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			r := runToy(t, d.name, trace, "7")
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", d.name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.name]
				if !ok {
					t.Errorf("%s trace %s: metric %s missing", d.name, trace, m.name)
					continue
				}
				if got.Unit != m.unit {
					t.Errorf("%s trace %s: %s unit %q, want %q", d.name, trace, m.name, got.Unit, m.unit)
				}
			}
		}
	}
}

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better %q", m.name, m.better)
		}
	}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			t.Errorf("workload name %q is malformed", d.name)
		}
	}
}

func TestBenchmarkFileMatchesCommand(t *testing.T) {
	b := readBenchmarkFile(t)
	var got []metricDef
	for _, m := range b.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\ncommand declares:\n%v", got, endToEnd)
	}
	got = nil
	for _, m := range b.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\ncommand declares:\n%v", got, perLayer)
	}
	if len(b.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, command has %d", len(b.Workloads), len(defs))
	}
	for i, w := range b.Workloads {
		if w.Name != defs[i].name || w.Why != defs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), command %q (%q)", i, w.Name, w.Why, defs[i].name, defs[i].why)
		}
	}
}

// TestSecondSeed checks that another seed asks other specs of the same
// store and still reports the same metric names. The join-budget
// workload pins its specs, so only their order changes.
func TestSecondSeed(t *testing.T) {
	for _, d := range defs {
		a, b := d.specsFor(7), d.specsFor(8)
		if len(a) != d.specs || len(b) != d.specs {
			t.Fatalf("%s: %d and %d specs, want %d", d.name, len(a), len(b), d.specs)
		}
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 give the same spec list", d.name)
		}
		sameSet := reflect.DeepEqual(idSet(a), idSet(b))
		if sameSet != d.pinned {
			t.Errorf("%s: same spec set on seeds 7 and 8 = %v, want %v", d.name, sameSet, d.pinned)
		}
	}
	r7, r8 := runToy(t, "scan-wide", "0", "7"), runToy(t, "scan-wide", "0", "8")
	if len(r7.Metrics) != len(r8.Metrics) {
		t.Errorf("seed 8 reports %d metrics, seed 7 %d", len(r8.Metrics), len(r7.Metrics))
	}
	for n := range r7.Metrics {
		if _, ok := r8.Metrics[n]; !ok {
			t.Errorf("seed 8 lacks metric %s", n)
		}
	}
}

// idSet is the set of spec IDs in specs.
func idSet(specs []workload.Spec) map[int]bool {
	out := map[int]bool{}
	for _, sp := range specs {
		out[sp.ID] = true
	}
	return out
}

// TestCountsRepeat checks that the traced run's work counts are the
// same on two runs of one seed.
func TestCountsRepeat(t *testing.T) {
	for _, d := range defs {
		a, b := runToy(t, d.name, "1", "7"), runToy(t, d.name, "1", "7")
		for _, n := range []string{"search.nodes", "search.propagations", "search.lp_solves", "encode.vars", "translate.cons_added"} {
			if a.Metrics[n] != b.Metrics[n] {
				t.Errorf("%s: %s %v then %v", d.name, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
	}
}
