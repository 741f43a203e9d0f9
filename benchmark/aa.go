package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is how the benchmark's acceptance reads a spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // quantile i of 4
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// runAA runs the workload n times in fresh child processes, seeds seed,
// seed+1, …, and prints per end-to-end metric the minimum, median and
// maximum and the spread — the interquartile distance as a share of the
// median — next to the metric's bound. It returns the exit code: 1 when a
// child fails or a spread exceeds twice its bound.
func runAA(n int, o options) int {
	if n < 2 {
		fmt.Fprintln(stderr, "benchmark: -aa needs at least 2 runs")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	child := []string{"-workload", o.sp.name, "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.outDir}
	if o.quick {
		child = append(child, "-quick")
	}
	samples := make(map[string][]float64)
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(exe, append(child, "-seed", strconv.FormatInt(seed, 10))...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: A/A run %d: %v\n", i+1, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res struct {
			Failed  uint64 `json:"failed"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(stderr, "benchmark: A/A run %d: result line: %v\n", i+1, err)
			return 1
		}
		for name, m := range res.Metrics {
			samples[name] = append(samples[name], m.Value)
		}
		fmt.Fprintf(stderr, "A/A run %d of %d done (seed %d, %d failed)\n", i+1, n, seed, res.Failed)
	}
	code := 0
	fmt.Printf("%-24s %-6s %14s %14s %14s %9s %7s\n", "metric", "unit", "min", "median", "max", "spread", "bound")
	for _, d := range endToEnd {
		xs := samples[d.name]
		sort.Float64s(xs)
		q1, q3 := quartiles(xs)
		med := median(xs)
		spread := (q3 - q1) / med
		flag := ""
		if spread > 2*d.bound {
			flag, code = "  SPREAD EXCEEDS TWICE THE BOUND", 1
		}
		fmt.Printf("%-24s %-6s %14.4f %14.4f %14.4f %8.2f%% %6.0f%%%s\n",
			d.name, d.unit, xs[0], med, xs[len(xs)-1], 100*spread, 100*d.bound, flag)
	}
	return code
}
