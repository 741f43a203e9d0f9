// Command semcc-bench runs the performance experiments (DESIGN.md §4,
// E1–E6) and prints their tables. Every experiment compares the
// paper's semantic open-nested protocol against the conventional
// baselines on the order-entry workload.
//
// Usage:
//
//	semcc-bench                    # all experiments, full parameter sweeps
//	semcc-bench -exp E1            # one experiment
//	semcc-bench -quick             # reduced sweeps (used in CI)
//	semcc-bench -wal=group         # attach a group-commit journal to
//	                               # every experiment point (-wal=sync,
//	                               # group or async; default none)
//	semcc-bench -nodes 2           # run every experiment point on a
//	                               # two-node cluster behind the 2PC
//	                               # coordinator (0 = direct engine)
//	semcc-bench -hot               # contention profile per protocol:
//	                               # top-K hottest objects + per-case
//	                               # wait-time histograms + case mix
//	semcc-bench -hot -trace 20     # ... plus the last 20 decision events
//	semcc-bench -hot -json         # ... as an expvar-style JSON snapshot
//	semcc-bench -serve :8080       # live observability endpoint while the
//	                               # experiments run (Prometheus text at
//	                               # /metrics, JSON at /json, slow spans
//	                               # at /slow, pprof at /debug/pprof/),
//	                               # kept up after the run until ^C
//	semcc-bench -serve :8080 -slowms 5  # log span trees of roots >= 5ms
//	semcc-bench -serve :8080 -nodes 2   # merged cluster endpoint: the
//	                               # coordinator's metrics and distributed
//	                               # spans plus every node's registry with
//	                               # node="i" labels
//
// -hot and -trace profile one direct engine without a journal; they
// refuse -nodes and -wal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"semcc/internal/core"
	"semcc/internal/harness"
	"semcc/internal/obs"
	"semcc/internal/oodb"
	"semcc/internal/wal"
	"semcc/internal/workload"
)

func main() {
	exp := flag.String("exp", "", "experiment id (see the list above); empty runs all")
	quick := flag.Bool("quick", false, "reduced parameter sweeps")
	nodes := flag.Int("nodes", 0, "node count: 0 runs one engine directly; N >= 1 shards every experiment point over an N-node cluster behind the 2PC coordinator")
	walMode := flag.String("wal", "none", "journal attached to every experiment point: none, sync, group or async")
	hot := flag.Bool("hot", false, "run the contention profiler instead of the experiment tables")
	traceN := flag.Int("trace", 0, "with -hot: also print the last N decision events")
	asJSON := flag.Bool("json", false, "with -hot: the expvar-style JSON snapshot")
	topK := flag.Int("topk", 10, "with -hot: number of hottest objects to report")
	items := flag.Int("items", 4, "with -hot: number of items (contention falls as it grows)")
	mpl := flag.Int("mpl", 16, "with -hot: multiprogramming level")
	serve := flag.String("serve", "", "address for the live observability endpoint (e.g. :8080); keeps serving after the run")
	slowms := flag.Int("slowms", 0, "with -serve: log span trees of root transactions taking >= this many milliseconds")
	flag.Usage = usage
	flag.Parse()

	// Reject an unknown -exp up front: -hot would otherwise silently
	// ignore it.
	var exps []*harness.Experiment
	if *exp == "" {
		exps = harness.All()
	} else {
		e, ok := harness.Get(*exp)
		if !ok {
			fail("unknown experiment %q", *exp)
		}
		exps = []*harness.Experiment{e}
	}

	// base is the one value the flags configure; every experiment
	// point derives from it (harness.Base).
	var base harness.Base
	if *nodes < 0 {
		fail("invalid -nodes %d (want 0 for direct or a positive cluster size)", *nodes)
	}
	base.Nodes = *nodes
	if *walMode != "" && *walMode != "none" {
		m, err := wal.ParseMode(*walMode)
		if err != nil {
			fail("%v", err)
		}
		base.WAL = &wal.Config{Mode: m}
	}

	profile := *hot || *traceN > 0
	if *asJSON && !profile {
		fail("-json needs -hot")
	}
	// The contention profiler runs one direct engine without a journal:
	// refuse the axes it would otherwise silently drop.
	if profile && (*nodes >= 1 || base.WAL != nil) {
		fail("-hot/-trace profile a direct engine without a journal; drop -nodes and -wal")
	}

	var served *obs.Obs
	if *serve != "" {
		served = obs.New(obs.Config{
			SlowSpan: time.Duration(*slowms) * time.Millisecond,
			SlowLog:  os.Stderr,
		})
		served.SetEnabled(true)
		base.Obs = served
		var (
			srv *obs.Server
			err error
		)
		if *nodes >= 1 {
			// Merged cluster endpoint: the shared Obs becomes the
			// coordinator part (hop/2PC metrics, distributed spans), and
			// each node's engine Obs is created on first use and added
			// with a node="i" label. Experiment points reuse the same
			// per-node handles, so metrics accumulate across points just
			// like the single-engine -serve mode.
			merged := obs.NewMerged()
			merged.Add(served)
			var mu sync.Mutex
			nodeParts := map[int]*obs.Obs{}
			base.NodeObs = func(i int) *obs.Obs {
				mu.Lock()
				defer mu.Unlock()
				o := nodeParts[i]
				if o == nil {
					o = obs.New(obs.Config{})
					o.SetEnabled(true)
					nodeParts[i] = o
					merged.Add(o, obs.L("node", strconv.Itoa(i)))
				}
				return o
			}
			srv, err = merged.Serve(*serve)
		} else {
			srv, err = served.Serve(*serve)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability: http://%s/ (metrics, json, slow, debug/pprof)\n", srv.Addr())
	}

	if profile {
		if err := runHot(*items, *mpl, *topK, *traceN, *quick, *asJSON, served); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if served != nil {
			fmt.Fprintln(os.Stderr, "profile done; observability endpoint still serving (^C to exit)")
			select {}
		}
		return
	}

	for _, e := range exps {
		tables, err := e.Run(base, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
	}
	if served != nil {
		fmt.Fprintln(os.Stderr, "experiments done; observability endpoint still serving (^C to exit)")
		select {}
	}
}

// usage prints the command lines, the experiments and the flags.
func usage() {
	var ids []string
	for _, e := range harness.All() {
		ids = append(ids, e.ID)
	}
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "usage: semcc-bench [-exp %s] [-quick] [-nodes N] [-wal none|sync|group|async] [-serve addr [-slowms N]]\n", strings.Join(ids, "|"))
	fmt.Fprintln(out, "       semcc-bench -hot [-trace N] [-json] [-quick] [-items N] [-mpl N] [-topk N] [-serve addr]")
	fmt.Fprintln(out, "experiments:")
	for _, e := range harness.All() {
		fmt.Fprintf(out, "  %s — %s\n", e.ID, e.Title)
	}
	fmt.Fprintln(out, "flags:")
	flag.PrintDefaults()
}

// fail reports a usage error and exits 2, as the flag package does.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "semcc-bench: "+format+"\n", args...)
	usage()
	os.Exit(2)
}

// runHot executes one contended workload point per protocol with
// observability enabled and prints each protocol's contention profile:
// the topK hottest objects, the per-cause wait-time histograms (the
// registry's semcc_lock_wait_ns family), and the Fig. 9 case-mix
// ratio. Without -serve every
// protocol gets its own Obs; the one -serve shares accumulates over the
// protocols run so far.
func runHot(items, mpl, topK, traceN int, quick, asJSON bool, served *obs.Obs) error {
	txPer := 300
	if quick {
		txPer = 100
	}
	for _, p := range core.Protocols() {
		o := served
		if o == nil {
			o = obs.New(obs.Config{})
			o.SetEnabled(true)
		}
		m, err := workload.Run(workload.Config{
			Options: oodb.Options{Protocol: p, Obs: o},
			Items:   items, Clients: mpl, TxPerClient: txPer, Seed: 42, Validate: true,
		})
		if err != nil {
			return fmt.Errorf("hot %s: %w", p, err)
		}
		if asJSON {
			var hists []obs.MetricSnap
			for _, ms := range o.Registry.Snapshot() {
				if ms.Name == "semcc_lock_wait_ns" {
					hists = append(hists, ms)
				}
			}
			out, err := json.MarshalIndent(map[string]any{
				"protocol": p.String(), "trace": o.Events(topK, traceN), "wait_histograms": hists,
			}, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(out))
			continue
		}
		fmt.Printf("== contention profile: %s ==\n%s", p, o.ContentionReport(topK, traceN))
		fmt.Printf("case %s: %s   tps=%.0f blocks/tx=%.2f\n\n",
			workload.CaseMixHeader(), m.CaseMix(), m.Throughput, m.BlockRate())
	}
	return nil
}
