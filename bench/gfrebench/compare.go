package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// minPairs is the fewest parent/change pairs a comparison accepts.
const minPairs = 10

// compareMain implements -compare parent.jsonl change.jsonl: runs of the two
// commits are paired in time order per workload, and each metric gets one
// row with both sides' median and quartiles, the pairs the change won, and
// a verdict. Exit status 1 means a regression, 2 a refused comparison.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: gfrebench -compare parent.jsonl change.jsonl")
		return 2
	}
	rows, err := compareFiles(args[0], args[1])
	if err != nil {
		fmt.Fprintln(stderr, "gfrebench -compare:", err)
		return 2
	}
	return writeComparison(stdout, rows)
}

func compareFiles(parentPath, changePath string) ([]compareRow, error) {
	parent, err := readRecords(parentPath)
	if err != nil {
		return nil, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return nil, err
	}
	return compareRuns(parent, change)
}

// compareRow is one workload × metric line of a comparison.
type compareRow struct {
	workload, metric, unit string
	parent, change         [3]float64 // Q1, median, Q3
	won, pairs             int
	verdict                string
}

// compareRuns applies the acceptance rule to every workload present on both
// sides. It refuses runs made under different conditions, fewer than
// minPairs pairs, and pairs that do not alternate which side ran first.
func compareRuns(parent, change []*record) ([]compareRow, error) {
	all := append(append([]*record(nil), parent...), change...)
	if len(all) == 0 {
		return nil, fmt.Errorf("no runs")
	}
	for _, rec := range all {
		if rec.Header != all[0].Header {
			return nil, fmt.Errorf("runs differ in header: %+v vs %+v", all[0].Header, rec.Header)
		}
	}
	type key struct {
		workload string
		trace    bool
	}
	group := func(recs []*record) map[key][]*record {
		g := map[key][]*record{}
		for _, rec := range recs {
			k := key{rec.Workload, rec.Trace}
			g[k] = append(g[k], rec)
		}
		for _, rs := range g {
			sort.Slice(rs, func(i, j int) bool { return rs[i].StartUnixNS < rs[j].StartUnixNS })
		}
		return g
	}
	pg, cg := group(parent), group(change)
	var keys []key
	for k := range pg {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("no workload has runs on both sides")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})

	var rows []compareRow
	for _, k := range keys {
		ps, cs := pg[k], cg[k]
		n := min(len(ps), len(cs))
		if n < minPairs {
			return nil, fmt.Errorf("%s: %d pairs, need at least %d", k.workload, n, minPairs)
		}
		for i := 1; i < n; i++ {
			if (ps[i].StartUnixNS < cs[i].StartUnixNS) == (ps[i-1].StartUnixNS < cs[i-1].StartUnixNS) {
				return nil, fmt.Errorf("%s: pairs %d and %d ran in the same order; alternate which side runs first", k.workload, i, i+1)
			}
		}
		ps, cs = ps[:n], cs[:n]
		name := k.workload
		if k.trace {
			name += " (traced)"
		}
		pf, cf := 0.0, 0.0
		for i := range ps {
			pf += float64(ps[i].Failed)
			cf += float64(cs[i].Failed)
		}
		failRow := compareRow{workload: name, metric: "failed", unit: "count",
			parent: [3]float64{pf, pf, pf}, change: [3]float64{cf, cf, cf}, pairs: n, verdict: "same"}
		if cf > pf {
			failRow.verdict = "regression"
		} else if cf < pf {
			failRow.verdict = "fewer"
		}
		table := endToEnd
		if k.trace {
			table = slices.Concat(perLayer, workloadLayers)
		}
		for _, d := range table {
			pv, cv, ok := pairValues(ps, cs, d.Name)
			if !ok {
				continue
			}
			row := judge(d, pv, cv)
			row.workload = name
			if row.verdict == "gain" && cf > pf {
				row.verdict = "gain void: more failures"
			}
			rows = append(rows, row)
		}
		rows = append(rows, failRow)
	}
	return rows, nil
}

// pairValues returns the metric's value in every pair, or false if a run
// lacks it.
func pairValues(ps, cs []*record, name string) (pv, cv []float64, ok bool) {
	for i := range ps {
		p, okP := ps[i].Metrics[name]
		c, okC := cs[i].Metrics[name]
		if !okP || !okC {
			return nil, nil, false
		}
		pv, cv = append(pv, p.Value), append(cv, c.Value)
	}
	return pv, cv, true
}

// judge applies the rule to one metric. A gain needs at least nine tenths of
// the pairs won (ties count for neither) and medians further apart than the
// parent's interquartile range. A metric whose spread on either side exceeds
// its bound is unresolved, unless every change run beats every parent run.
// Otherwise a change median worse than the parent's by more than the bound
// is a regression.
func judge(d metricDef, pv, cv []float64) compareRow {
	better := func(c, p float64) bool {
		if d.Better == "lower" {
			return c < p
		}
		return c > p
	}
	row := compareRow{metric: d.Name, unit: d.Unit, pairs: len(pv)}
	row.parent[0], row.parent[1], row.parent[2] = quartiles(pv)
	row.change[0], row.change[1], row.change[2] = quartiles(cv)
	for i := range pv {
		if better(cv[i], pv[i]) {
			row.won++
		}
	}
	pMed, cMed := row.parent[1], row.change[1]
	pIQR := row.parent[2] - row.parent[0]
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	worstC, bestP := cv[0], pv[0]
	for i := range pv {
		if better(worstC, cv[i]) {
			worstC = cv[i]
		}
		if better(pv[i], bestP) {
			bestP = pv[i]
		}
	}
	allBetter := better(worstC, bestP)
	switch {
	case 10*row.won >= 9*row.pairs && better(cMed, pMed) && math.Abs(cMed-pMed) > pIQR:
		row.verdict = "gain"
	case d.Bound == 0:
		row.verdict = "no claim"
	case (spread(row.parent) > d.Bound || spread(row.change) > d.Bound) && !allBetter:
		row.verdict = "unresolved"
	case !better(cMed, pMed) && math.Abs(cMed-pMed) > d.Bound*math.Abs(pMed):
		row.verdict = "regression"
	default:
		row.verdict = "within bound"
	}
	return row
}

func writeComparison(w io.Writer, rows []compareRow) int {
	code := 0
	fmt.Fprintf(w, "%-25s %-26s %-34s %-34s %-7s %s\n", "workload", "metric", "parent median [Q1, Q3]", "change median [Q1, Q3]", "won", "verdict")
	q := func(v [3]float64, unit string) string {
		return fmt.Sprintf("%.5g [%.5g, %.5g] %s", v[1], v[0], v[2], unit)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-25s %-26s %-34s %-34s %3d/%-3d %s\n",
			r.workload, r.metric, q(r.parent, r.unit), q(r.change, r.unit), r.won, r.pairs, r.verdict)
		if r.verdict == "regression" {
			code = 1
		}
	}
	return code
}
