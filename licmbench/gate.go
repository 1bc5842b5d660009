package main

import (
	"fmt"

	"licm/internal/workload"
)

// verdict is the correctness gate's finding for one run.
type verdict struct {
	// qerr is each spec's q-error against ground truth (0 when the
	// answer is not proven or the spec was not checked).
	qerr []float64
	// bad marks answers that count as failed: a typed error, a failed
	// ladder result, a ground-truth miss, or a result that differs
	// from the spec's first answer.
	bad []bool
	// reasons lists one line per distinct problem, for stderr.
	reasons []string
}

func (v *verdict) failed() int {
	n := 0
	for _, b := range v.bad {
		if b {
			n++
		}
	}
	return n
}

// check gates every answer of a phase, outside its timed window.
// Ground truth comes from workload.Execute with the first answer of
// each spec as its answer source: an exact reference solve when the
// store is small enough, otherwise the Monte-Carlo range plus sampled
// worlds, and every proven answer must contain it.
func check(cfg workload.Config, specs []workload.Spec, answers []answer) verdict {
	v := verdict{qerr: make([]float64, len(specs)), bad: make([]bool, len(answers))}
	first := make([]*answer, len(specs))
	for i := range answers {
		a := &answers[i]
		if a.err != nil || a.quality == "failed" {
			v.bad[i] = true
			v.reasons = append(v.reasons, fmt.Sprintf("%s: failed answer: quality %q, err %v", specs[a.spec].Name(), a.quality, a.err))
			continue
		}
		if first[a.spec] == nil {
			first[a.spec] = a
		} else if !a.same(first[a.spec]) {
			v.bad[i] = true
			v.reasons = append(v.reasons, fmt.Sprintf("%s: passes disagree: [%d, %d] %s then [%d, %d] %s",
				specs[a.spec].Name(), first[a.spec].lb, first[a.spec].ub, first[a.spec].quality, a.lb, a.ub, a.quality))
		}
	}

	var checked []workload.Spec
	index := map[int]int{} // spec ID -> index into specs
	for i, sp := range specs {
		if first[i] != nil {
			checked = append(checked, sp)
			index[sp.ID] = i
		}
	}
	gcfg := cfg
	gcfg.Answer = func(sp workload.Spec) (*workload.Answer, error) {
		a := first[index[sp.ID]]
		return &workload.Answer{Quality: a.quality, Lb: a.lb, Ub: a.ub, Infeasible: a.infeasible}, nil
	}
	run, err := workload.Execute(gcfg, checked)
	if err != nil {
		for i := range v.bad {
			v.bad[i] = true
		}
		v.reasons = append(v.reasons, fmt.Sprintf("ground truth: %v", err))
		return v
	}
	missed := make([]bool, len(specs))
	for _, rec := range run.Records {
		i := index[rec.Spec.ID]
		v.qerr[i] = rec.Qerr
		for _, msg := range rec.Violations {
			missed[i] = true
			v.reasons = append(v.reasons, fmt.Sprintf("%s: %s", rec.Name, msg))
		}
	}
	for i := range answers {
		if missed[answers[i].spec] {
			v.bad[i] = true
		}
	}
	return v
}
