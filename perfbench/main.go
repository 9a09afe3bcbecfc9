// Command perfbench is the repository benchmark. It boots simulated nginx
// under the sMVX monitor, drives it with closed-loop traffic from one
// client that keeps one connection in flight, checks every response, and
// measures two systems on the same traffic: the modelled sMVX system on
// the simulated 2.1 GHz clock (sim_*), and the Go simulator running it in
// host time (host_*).
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload nginx-line-strict --seed 1 --seconds 40 --trace 0
//
// run.py builds this package and runs it with the same flags. With
// --trace 0 the last line of standard output is one JSON object holding
// every end-to-end metric declared in BENCHMARK.json; with --trace 1 it
// holds every per-layer metric, measured on a traced pass that times the
// layers from outside, and a self-time table goes to standard error. Every
// metric is also printed by name and unit to standard error. --workload
// all runs each workload in turn; its last line maps workload names to
// their results. The exit status is non-zero when any output was wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// runMargin is how long one workload's run may go on past its --seconds
// budget before a watchdog ends it, so a wedged run exits non-zero instead
// of hanging. The native episode, the passes' minimum episodes and the
// last episode's overrun take well under it.
const runMargin = 120 * time.Second

// Paths relative to the repository root, the working directory run.py
// starts the benchmark in.
const (
	// specPath declares the metrics a run must report and their bounds.
	specPath = "BENCHMARK.json"
	// traceDir receives the traced pass's spans.
	traceDir = ".bench_build/trace"
)

// procs is the benchmark's GOMAXPROCS. On one P the client, leader and
// follower goroutines hand off without waking another OS thread, so host
// time follows the simulator's own work. With two Ps on a shared 2-vCPU
// virtual machine every handoff can wait for the hypervisor to run the
// other vCPU: runs under contention lost a third of their throughput and
// showed a p99 up to three times the one-P figure.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed for the traffic, kernel, libc and monitor")
	seconds := fs.Int("seconds", 40, "host seconds of traffic to measure")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var defs []workloadDef
	for _, n := range names {
		w, err := lookupWorkload(n)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		defs = append(defs, w)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	limit := time.Duration(len(defs)) * (budget + runMargin)
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	want := sp.EndToEnd
	if *trace == 1 {
		want = sp.PerLayer
	}
	outs := make(map[string]jsonResult, len(defs))
	wrong := false
	for _, w := range defs {
		res, err := measure(w, *seed, budget, *trace == 1, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := res.checkNames(want); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if *trace == 1 {
			res.checkDrift(sp.EndToEnd)
		}
		fmt.Fprintf(stderr, "%s, seed %d:\n", w.name, *seed)
		for _, m := range res.metrics {
			fmt.Fprintf(stderr, "  %-42s %16.4f %s\n", m.name, m.value, m.unit)
		}
		for _, f := range res.failures {
			fmt.Fprintln(stderr, "perfbench: wrong output:", f)
		}
		out := res.output()
		wrong = wrong || !out.Correct
		outs[w.name] = out
	}
	var line []byte
	if len(defs) == 1 {
		line, err = json.Marshal(outs[defs[0].name])
	} else {
		line, err = json.Marshal(outs)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if wrong {
		return 1
	}
	return 0
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("read benchmark definition: %w", err)
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return sp, errors.New(path + " declares no metrics")
	}
	return sp, nil
}
