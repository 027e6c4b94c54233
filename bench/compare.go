package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// compareFiles compares the end-to-end metrics of two sets of results files
// — the parent's runs and the change's, ideally ten each made alternately —
// one row per (workload, metric), by the rule a claimed gain must pass: the
// change wins at least nine tenths of the pairs (file i of each side) and the
// medians differ by more than the parent's own quartile spread. A regression
// is a median worse than the parent's by more than the metric's bound; a
// parent spread wider than the bound makes the row unresolved unless every
// change run beats every parent run. The exit code is 1 when any row
// regressed, 2 when the files cannot be compared.
func compareFiles(stdout, stderr io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two arguments: BASE[,BASE...] HEAD[,HEAD...]")
		return 2
	}
	base, err := loadResults(strings.Split(args[0], ","))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	head, err := loadResults(strings.Split(args[1], ","))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	all := append(slices.Clone(base), head...)
	for _, r := range all[1:] {
		if r.env != all[0].env {
			fmt.Fprintf(stderr, "bench: refusing to compare results from different machines or toolchains: %+v vs %+v\n", all[0].env, r.env)
			return 2
		}
	}

	fmt.Fprintf(stdout, "| workload | metric | base median [q1, q3] | head median [q1, q3] | change | wins | verdict |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|\n")
	regressed := false
	for _, wl := range workloads() {
		for _, d := range endToEnd {
			b, okb := column(base, wl.Name(), d.Name)
			h, okh := column(head, wl.Name(), d.Name)
			if !okb || !okh {
				continue
			}
			v := judge(d, b, h)
			regressed = regressed || v.verdict == "regression"
			fmt.Fprintf(stdout, "| %s | %s | %s | %s | %+.1f%% | %d/%d | %s |\n",
				wl.Name(), d.Name, fmtQuartiles(b), fmtQuartiles(h), v.change*100, v.wins, v.pairs, v.verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func loadResults(paths []string) ([]*results, error) {
	var out []*results
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r results
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// column collects one metric of one workload across results files; ok is
// false unless every file has it.
func column(rs []*results, workload, metric string) ([]float64, bool) {
	var out []float64
	for _, r := range rs {
		w, ok := r.Workloads[workload]
		if !ok {
			return nil, false
		}
		v, ok := w.Metrics[metric]
		if !ok {
			return nil, false
		}
		out = append(out, v.Value)
	}
	return out, true
}

type verdict struct {
	verdict     string
	change      float64 // head median relative to base median
	wins, pairs int
}

func judge(d metricDef, base, head []float64) verdict {
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	sign := 1.0 // +1: lower is better
	if d.Better == "higher" {
		sign = -1
	}
	v := verdict{pairs: min(len(base), len(head))}
	for i := range v.pairs {
		if sign*(head[i]-base[i]) < 0 {
			v.wins++
		}
	}
	diff := hmed - bmed
	if bmed != 0 {
		v.change = diff / math.Abs(bmed)
	}
	worse := sign*diff > 0
	spread := bq3 - bq1
	allBetter := slices.Max(head) < slices.Min(base)
	if sign < 0 {
		allBetter = slices.Min(head) > slices.Max(base)
	}
	switch {
	case spread > d.Bound*math.Abs(bmed) && !allBetter:
		v.verdict = "unresolved"
	case worse && math.Abs(diff) > d.Bound*math.Abs(bmed):
		v.verdict = "regression"
	case !worse && v.pairs >= 10 && 10*v.wins >= 9*v.pairs && math.Abs(diff) > spread:
		v.verdict = "gain"
	default:
		v.verdict = "within bound"
	}
	return v
}

func fmtQuartiles(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}
