// Command benchmark is the repository's one benchmark: it runs one
// order-entry workload against the engine from one process, verifies the
// outputs, and prints every metric by name with its unit. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// stderr receives diagnostics; standard output carries only metrics.
var stderr io.Writer = os.Stderr

func main() {
	// One process, pinned to this box's two cores, so that a run means
	// the same on a larger machine.
	runtime.GOMAXPROCS(2)

	var (
		workload = flag.String("workload", "", "workload to run: std-direct, hot-durable, cluster-2pc or read-scan")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 14, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 adds the traced phase and reports the per-layer metrics instead of the end-to-end ones")
		quick    = flag.Bool("quick", false, "smoke-test size: small population, one short segment")
		aa       = flag.Int("aa", 0, "A/A mode: run the workload this many times in child processes and report the spread of every end-to-end metric (5 is a good count)")
		outDir   = flag.String("out", "benchmark/out", "directory for the trace file")
	)
	flag.Parse()
	sp, err := specByName(*workload)
	if err == nil && (*seconds <= 0 || flag.NArg() > 0 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("bad arguments")
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		flag.Usage()
		os.Exit(2)
	}
	o := options{sp: sp, seed: *seed, seconds: *seconds, traced: *trace == 1, quick: *quick, outDir: *outDir}
	if *aa > 0 {
		os.Exit(runAA(*aa, o))
	}

	rep, err := run(o)
	if err == nil {
		err = complete(endToEnd, rep.e2e)
	}
	if err == nil && rep.layer != nil {
		err = complete(perLayer, rep.layer)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: FAILED: %v\n", sp.name, err)
		os.Exit(1)
	}

	// The last line is the machine-readable result: the end-to-end
	// metrics of an untraced run, the per-layer metrics of a traced one.
	defs, vs := endToEnd, rep.e2e
	printText(os.Stdout, endToEnd, rep.e2e)
	if rep.layer != nil {
		printText(os.Stdout, perLayer, rep.layer)
		defs, vs = perLayer, rep.layer
	}
	line, err := resultLine(rep.attempted, rep.failed, defs, vs)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
