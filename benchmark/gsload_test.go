package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smoke runs one workload at a hundredth of its size and returns the
// result it printed. execute fails the run if teardown leaves a
// transaction active, so a pass also says nothing was left open.
func smoke(t *testing.T, name string, trace bool) result {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	var stdout, stderr bytes.Buffer
	cfg := config{workload: name, seed: 3, seconds: 0.2, scale: 0.01, clients: nClients, trace: trace, outDir: t.TempDir()}
	if raceDetector {
		// Two sessions on one freshly opened database race inside the
		// engine: object.(*Object).Element builds its lazy index on a shared
		// committed object, and directory.Index.LookupFunc/RangeFunc count
		// with a bare ix.lookups++, both under a read lock at most. The
		// engine is out of this package's reach, so under -race the smoke
		// test keeps to one session per database; without it, two.
		cfg.clients = 1
	}
	if code := execute(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	if trace {
		if _, err := os.Stat(cfg.outDir + "/" + name + ".trace.json"); err != nil {
			t.Error(err)
		}
	}
	return res
}

func TestWorkloadsReportEveryDeclaredMetric(t *testing.T) {
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				res := smoke(t, w, trace)
				if len(res.Metrics) != len(defs) {
					t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w, trace, d.name, m, ok, d.unit)
					}
					if !nameOK.MatchString(d.name) || !unitOK.MatchString(d.unit) {
						t.Errorf("metric %q unit %q: outside the allowed characters", d.name, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.name, m.Value)
					}
				}
			})
		}
	}
}

// Two traced runs with one seed must agree exactly on the counts a later
// change may cite.
func TestTracedCountsRepeat(t *testing.T) {
	for _, w := range []string{"oltp_commit", "query_read"} {
		t.Run(w, func(t *testing.T) {
			a, b := smoke(t, w, true), smoke(t, w, true)
			for name, m := range a.Metrics {
				if strings.HasPrefix(name, "count.") && m != b.Metrics[name] {
					t.Errorf("%s: %s = %v then %v", w, name, m.Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, gsload has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v, want %s with a one-line why", i, w, workloadNames[i])
		}
	}
	check := func(kind string, got []decl, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, gsload reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, gsload has %+v", kind, i, g, d)
			}
			if (d.bound > 0) != (g.Bound != nil) || (g.Bound != nil && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, gsload has %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
