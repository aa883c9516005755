// Command gsload is the repository's benchmark: one process that opens a
// throw-away database, serves it over the wire to closed-loop clients it
// runs itself, checks every answer, and prints the metrics BENCHMARK.json
// names. See README.md in this directory.
//
//	gsload --workload oltp_commit --seed 7 --seconds 10 --trace 0
//	gsload --workload oltp_commit --seed 7 --seconds 10 --trace 1
//	gsload -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints, as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLimit bounds a whole run; the watchdog exits with code 3 past it.
const runLimit = 170 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64 // of data sizes and loop counts; 1 except in the smoke test
	clients  int     // closed-loop clients of the measured window; nClients except in the smoke test
	trace    bool
	outDir   string // where a traced run writes its spans
	record   string // file to append the result to, for -compare
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the op generator")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced ladder")
	fs.StringVar(&cfg.outDir, "out", "benchmark/out", "directory a traced run writes <workload>.trace.json to")
	fs.StringVar(&cfg.record, "record", "", "also append the result, labelled, to this file (input of -compare)")
	fs.BoolVar(&compare, "compare", false, "compare two -record files: gsload -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "gsload: -compare takes two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	cfg.trace, cfg.scale, cfg.clients = trace != 0, 1, nClients
	if _, err := newWorkload(cfg.workload, cfg.scale); err != nil || cfg.seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "gsload: %v\nusage: gsload --workload <name> --seed <n> --seconds <s> --trace <0|1>\n", err)
		return 2
	}
	return execute(cfg, stdout, stderr)
}

// execute is one run, from nothing to nothing: whatever it opens it closes.
func execute(cfg config, stdout, stderr io.Writer) int {
	base, err := os.MkdirTemp("", "gsload-*")
	if err != nil {
		fmt.Fprintln(stderr, "gsload:", err)
		return 1
	}
	j := &janitor{}
	// Every way out takes the same teardown: a return below, the watchdog,
	// SIGINT and SIGTERM.
	teardown := func() {
		j.closeAll()
		os.RemoveAll(base)
	}
	defer teardown()
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "gsload: %s still running after %v, giving up\n", cfg.workload, runLimit)
		teardown()
		os.Exit(3)
	})
	defer watchdog.Stop()
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(done)
	}()
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(stderr, "gsload: %v\n", s)
			teardown()
			os.Exit(130)
		case <-done:
		}
	}()

	r := &run{config: cfg, j: j, base: base, info: stderr}
	var res result
	if cfg.trace {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		// A run that broke a guarantee, or broke, has no result to print.
		fmt.Fprintln(stderr, "gsload:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "gsload:", err)
		return 1
	}
	if cfg.record != "" {
		if err := appendRecord(cfg, res); err != nil {
			fmt.Fprintln(stderr, "gsload:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
