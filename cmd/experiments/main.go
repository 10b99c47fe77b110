// Command experiments regenerates every table and figure of the
// paper's evaluation section on synthetic data.
//
// Usage:
//
//	experiments -all                 # every artifact, small scale
//	experiments -scale full -all     # paper-sized datasets (slow)
//	experiments -table 6             # one table
//	experiments -figure 2            # one figure (same as -table F2)
//	experiments -list                # list available artifacts
//	experiments -workers 4 -all      # cap the evaluation worker pool
//	experiments -bench-json out.json # worker-matrix benchmark and its gate
//
// The kernel gates (each optimized kernel timed against its naive
// reference) are benchmarks beside their kernels, not artifacts:
//
//	go test -run '^$' -bench '^BenchmarkKernelGate$' -benchtime 1x ./...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pharmaverify/internal/bench"
	"pharmaverify/internal/buildinfo"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/parallel"
	"pharmaverify/internal/prof"
)

func main() {
	var (
		scaleName = flag.String("scale", "small", "dataset scale: small or full (paper sizes)")
		table     = flag.String("table", "", "regenerate one table/artifact by ID (1,3..17,F1..F3,A1..A4)")
		figure    = flag.String("figure", "", "regenerate one figure by number (1..3)")
		all       = flag.Bool("all", false, "regenerate every artifact")
		list      = flag.Bool("list", false, "list available artifacts")
		format    = flag.String("format", "text", "output format: text or markdown")
		workers   = flag.Int("workers", 0, "worker-pool size for parallel evaluation (0 = GOMAXPROCS; 1 = sequential)")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
		benchJSON = flag.String("bench-json", "", "run the worker-matrix benchmark, write the JSON report to this file ('-' for stdout) and exit non-zero unless every leg is byte-identical and heavy entries keep the parallel-efficiency floor (skipped single-core)")
		cpuProf   = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a runtime/pprof heap profile at exit to this file")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("experiments"))
		return
	}

	stopCPU, err := prof.StartCPU(*cpuProf)
	if err != nil {
		fatal(err)
	}
	// fatal() exits without unwinding, so profile flushing hangs off it
	// too: a failed or cancelled run still leaves usable profiles.
	flushProfiles = func() {
		if err := stopCPU(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		if err := prof.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}
	defer flushProfiles()

	// SIGINT/SIGTERM cancel the context: dataset builds and artifact
	// regeneration stop at the next boundary instead of running to the
	// bitter end.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *workers > 0 {
		parallel.SetDefault(*workers)
	}

	if *list {
		for _, r := range bench.Runners {
			fmt.Printf("%-4s %s\n", r.ID, r.Desc)
		}
		return
	}

	var scale bench.Scale
	switch *scaleName {
	case "small":
		scale = bench.SmallScale
	case "full":
		scale = bench.FullScale
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q (want small or full)\n", *scaleName)
		os.Exit(2)
	}

	id := *table
	if *figure != "" {
		id = "F" + *figure
	}
	if id == "" && !*all && *benchJSON == "" {
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("generating synthetic datasets (scale=%s, seed=%d)...\n", scale.Name, scale.Seed)
	start := time.Now()
	env, err := bench.NewEnvCtx(ctx, scale)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("datasets ready in %v: %s has %d pharmacies, %s has %d\n",
		time.Since(start).Round(time.Millisecond),
		env.Snap1.Name, env.Snap1.Len(), env.Snap2.Name, env.Snap2.Len())
	for _, snap := range []*dataset.Snapshot{env.Snap1, env.Snap2} {
		if st := snap.CrawlStats; st != nil {
			fmt.Printf("crawl telemetry (%s): %d attempts, %d retries, %d failed, %d pages lost, %d breaker trips, %.1f MiB\n",
				snap.Name, st.Attempts, st.Retries, st.Failures, st.PagesFailed, st.BreakerTrips,
				float64(st.Bytes)/(1<<20))
		}
	}
	fmt.Println()

	if *benchJSON != "" {
		var ids []string
		if id != "" {
			ids = strings.Split(id, ",")
		}
		rep, err := bench.RunBenchmark(env, ids, *workers)
		if err != nil {
			fatal(err)
		}
		out := os.Stdout
		if *benchJSON != "-" {
			f, err := os.Create(*benchJSON)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := rep.WriteJSON(out); err != nil {
			fatal(err)
		}
		fmt.Printf("benchmark: %d artifacts, worker matrix %v, identical=%v\n",
			len(rep.Entries), rep.WorkerMatrix, rep.AllIdentical)
		for _, e := range rep.Entries {
			if !e.Heavy {
				continue
			}
			last := e.Legs[len(e.Legs)-1]
			fmt.Printf("heavy  %-4s %8v sequential, %.2fx at %d workers, efficiency %.2f\n",
				e.ID, time.Duration(e.Legs[0].NS).Round(time.Millisecond), last.Speedup, last.Workers, last.Efficiency)
		}
		if err := bench.CheckParallelEfficiency(rep); err != nil {
			fatal(err)
		}
		if rep.GoMaxProcs <= 1 || rep.Workers <= 1 {
			fmt.Printf("parallel-efficiency check skipped: recorded at gomaxprocs=%d workers=%d (needs a multi-core run)\n",
				rep.GoMaxProcs, rep.Workers)
		} else {
			fmt.Println("parallel-efficiency check passed")
		}
		return
	}

	run := func(r bench.Runner) {
		// Check the context between artifacts: a signal or an expired
		// -timeout stops the sweep at the next clean boundary with the
		// completed tables already printed.
		if err := ctx.Err(); err != nil {
			fatal(fmt.Errorf("stopping before %s: %w", r.ID, err))
		}
		t0 := time.Now()
		tab, err := r.Run(env)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", r.ID, err))
		}
		if *format == "markdown" {
			_, err = tab.WriteMarkdown(os.Stdout)
		} else {
			_, err = tab.WriteTo(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("(%s regenerated in %v)\n\n", tab.ID, time.Since(t0).Round(time.Millisecond))
	}

	if *all {
		for _, r := range bench.Runners {
			run(r)
		}
		return
	}
	r := bench.FindRunner(id)
	if r == nil {
		fmt.Fprintf(os.Stderr, "experiments: unknown artifact %q (use -list)\n", id)
		os.Exit(2)
	}
	run(*r)
}

// flushProfiles stops the CPU profile and writes the heap profile, if
// profiling was requested; set in main once the flags are parsed.
var flushProfiles = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	flushProfiles()
	if errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	os.Exit(1)
}
