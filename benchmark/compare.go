package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// setValues is one -out file: workload -> end-to-end metric -> one value per run.
type setValues map[string]map[string][]float64

func loadSet(path string) (setValues, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	vals := make(setValues)
	for _, r := range set.Runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.EndToEnd {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
		}
	}
	return vals, nil
}

// spreadOf is the distance between the first and third quartile as a share
// of the median — the driver's steadiness measure; -1 when unknown.
func spreadOf(v []float64) float64 {
	q1, q2, q3, ok := quartiles(v)
	if !ok || q2 == 0 {
		return -1
	}
	return (q3 - q1) / q2
}

// compareMain prints one row per (metric, workload): B's median against A's,
// as a share of A's, next to the metric's bound. A row is `unresolved` when
// either input's own run-to-run spread exceeds the bound — then the data
// cannot tell a regression from noise — and `WORSE` when B is worse than A
// by more than the bound. It returns 1 if any row is WORSE.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json   (files written with -out)")
		return 2
	}
	var sets [2]setValues
	for i, path := range args {
		var err error
		if sets[i], err = loadSet(path); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
	}
	return compareSets(sets[0], sets[1])
}

func compareSets(a, b setValues) int {
	code := 0
	fmt.Printf("%-20s %-14s %12s %12s %8s %6s %8s %8s  %s\n",
		"metric", "workload", "A median", "B median", "worse%", "bound%", "A iqr%", "B iqr%", "verdict")
	for _, def := range endToEnd {
		for _, w := range workloads {
			va, vb := a[w.name][def.name], b[w.name][def.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if !def.lower {
				worse = -worse
			}
			sa, sb := spreadOf(va), spreadOf(vb)
			verdict := "ok"
			switch {
			case sa > def.bound || sb > def.bound:
				verdict = "unresolved"
			case worse > def.bound:
				verdict = "WORSE"
				code = 1
			}
			fmt.Printf("%-20s %-14s %12.4f %12.4f %8.2f %6.1f %8s %8s  %s (n=%d,%d)\n",
				def.name, w.name, ma, mb, 100*worse, 100*def.bound, pct(sa), pct(sb), verdict, len(va), len(vb))
		}
	}
	return code
}

func pct(s float64) string {
	if s < 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", 100*s)
}
