package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// record is one run as -record appends it: the result plus what the
// result line itself may not carry.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(cfg config, res result) error {
	r := record{Workload: cfg.workload, Seed: cfg.seed, Result: res}
	if cfg.trace {
		r.Trace = 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(cfg.record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns what Python's statistics.quantiles(values, n=4) does
// (the exclusive method), so spreads read here match the driver's.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), median(s), at(3)
}

// compareFiles prints, per workload and metric, both sets' medians and
// quartiles and the relative gap B-A. It marks an end-to-end gap beyond the
// metric's bound in the worse direction, a spread beyond the bound, and any
// difference at all in a count that must repeat; any mark makes it return 1.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "gsload:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "gsload:", err)
		return 2
	}
	type key struct {
		workload, metric string
	}
	collect := func(rs []record) (map[key][]float64, int) {
		m, bad := map[key][]float64{}, 0
		for _, r := range rs {
			if !r.Result.Correct || r.Result.Failed != 0 {
				bad++
			}
			for name, v := range r.Result.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m, bad
	}
	va, badA := collect(a)
	vb, badB := collect(b)
	marks := 0
	if badA+badB > 0 {
		fmt.Fprintf(stdout, "FAILED: %d runs of A and %d of B had failed ops or wrong answers\n", badA, badB)
		marks++
	}
	fmt.Fprintf(stdout, "%-14s %-30s %12s %-25s %12s %-25s %8s\n", "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "gap")
	for _, w := range workloadNames {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				xa, xb := va[key{w, d.name}], vb[key{w, d.name}]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				a1, am, a3 := quartiles(xa)
				b1, bm, b3 := quartiles(xb)
				gap := ratio(bm-am, am)
				worse := gap
				if d.better == "higher" {
					worse = -gap
				}
				mark := ""
				switch {
				case strings.HasPrefix(d.name, "count."):
					if a1 != a3 || b1 != b3 || am != bm {
						mark = "  DIFFERS: this count must repeat exactly"
					}
				case d.bound > 0 && worse > d.bound:
					mark = fmt.Sprintf("  WORSE by more than the bound %.2f", d.bound)
				case d.bound > 0 && d.name != "setup_s" && max(ratio(a3-a1, am), ratio(b3-b1, bm)) > d.bound:
					mark = fmt.Sprintf("  UNRESOLVED: spread wider than the bound %.2f", d.bound)
				}
				if mark != "" {
					marks++
				}
				fmt.Fprintf(stdout, "%-14s %-30s %12.5g [%10.5g, %10.5g]  %12.5g [%10.5g, %10.5g]  %+7.1f%%%s\n",
					w, d.name, am, a1, a3, bm, b1, b3, 100*gap, mark)
			}
		}
	}
	if marks > 0 {
		return 1
	}
	return 0
}
