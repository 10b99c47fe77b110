// Command perfbench is the repository's benchmark. It runs one workload
// per invocation, in a single process, against the program's own
// packages: a webgen world stands behind crawler.Fetcher, so nothing
// touches the network.
//
//	go run . --workload serve-hot --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	serve-hot       64-domain ranked /v1/verify batches, every verdict cached
//	serve-cold      single-domain /v1/verify requests for unseen domains
//	reverify-sweep  reverify.Pipeline sweeps over the Dataset-1 corpus
//	train-eval      cross-validated paper-table cells on a Dataset-1 snapshot
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics
// of a traced run instead, and the run's spans are written to -out.
// Lines before it are a human-readable report. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string
	// workers is the worker count of the parallel-identity check: one
	// per CPU the process may use.
	workers int
	speed   *speedProbe
}

// outcome is what a workload hands back: its set-up times, the timed
// phase, and the results of its output checks.
type outcome struct {
	setups []time.Duration
	lat    []time.Duration
	// rounds are the timed phase's rounds, each a whole repetition of
	// the workload's operations.
	rounds    []roundStat
	attempted int
	failed    int
	ph        *phase
	problems  []string
	// layers holds the per-layer metrics of a traced run by name.
	layers map[string]float64
	report []string
	speed  *speedProbe
}

func newOutcome(cfg runConfig) *outcome {
	return &outcome{layers: map[string]float64{}, speed: cfg.speed}
}

// roundStat is one round: its operations, wall time and process CPU.
type roundStat struct {
	ops       int
	wall, cpu time.Duration
}

// roundTimer times one round.
type roundTimer struct {
	start time.Time
	cpu   time.Duration
	ops   int
	// paused is the speed probe's paused time when the round began;
	// probes taken within the round are left out of its times.
	paused time.Duration
}

func (o *outcome) startRound(ops int) roundTimer {
	return roundTimer{start: time.Now(), cpu: processCPU(), ops: ops, paused: o.speed.paused}
}

// endRound records the round begun by r, then probes the machine's
// speed if it is due; ops is the outcome's attempted count when it
// ended.
func (o *outcome) endRound(r roundTimer) {
	probed := o.speed.paused - r.paused
	o.rounds = append(o.rounds, roundStat{ops: o.attempted - r.ops, wall: time.Since(r.start) - probed, cpu: processCPU() - r.cpu - probed})
	o.speed.between()
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd is every end-to-end metric an untraced run prints.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_peak_mb", "MiB"},
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-hot":      runServeHot,
	"serve-cold":     runServeCold,
	"reverify-sweep": runReverifySweep,
	"train-eval":     runTrainEval,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: serve-hot, serve-cold, reverify-sweep or train-eval")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds (whole rounds)")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for the traced runs' span files")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	speed, err := newSpeedProbe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		out:     *out,
		workers: runtime.GOMAXPROCS(0),
		speed:   speed,
	}
	o, err := w(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := o.result(*name, cfg)
	for _, line := range o.report {
		fmt.Println(line)
	}
	for _, p := range o.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// result assembles the printed result: end-to-end metrics for an
// untraced run, per-layer metrics for a traced one.
func (o *outcome) result(name string, cfg runConfig) result {
	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	s := summarize(o.lat)
	setups := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setups[i] = d.Seconds()
	}
	// Throughput and CPU per operation are medians over the rounds, so
	// a stretch of interference from outside the process moves them
	// only if it covers most rounds.
	var tput, cpu []float64
	for _, r := range o.rounds {
		tput = append(tput, float64(r.ops)/r.wall.Seconds())
		cpu = append(cpu, ms(r.cpu)/float64(r.ops))
	}
	ops := float64(o.attempted)
	// Times are reported at the reference machine speed (speed.go): the
	// set-up's at the speed probed around the set-ups, the timed phase's
	// at the speed probed during it; wall times by the probe's wall time,
	// CPU times by its CPU time.
	setupScale, _ := scales(o.speed.setup)
	timedScale, cpuScale := scales(o.speed.timed)
	raw := map[string]float64{
		"setup_s":          median(setups),
		"throughput_per_s": median(tput),
		"latency_p50_ms":   ms(s.p50),
		"latency_tail_ms":  ms(s.tail),
		"cpu_ms_per_op":    median(cpu),
	}
	values := map[string]float64{
		"setup_s":          raw["setup_s"] * setupScale,
		"throughput_per_s": raw["throughput_per_s"] / timedScale,
		"latency_p50_ms":   raw["latency_p50_ms"] * timedScale,
		"latency_tail_ms":  raw["latency_tail_ms"] * timedScale,
		"cpu_ms_per_op":    raw["cpu_ms_per_op"] * cpuScale,
		"alloc_kb_per_op":  float64(o.ph.allocBytes()) / 1024 / ops,
		"heap_peak_mb":     float64(o.ph.peak) / (1 << 20),
	}
	o.report = append([]string{
		fmt.Sprintf("workload %s seed %d: %d operations attempted, %d failed, %d rounds in a timed phase of %.2f s (%.1f operations/s, %.4f CPU ms/operation overall), GOMAXPROCS %d, %s",
			name, cfg.seed, o.attempted, o.failed, len(o.rounds), o.ph.wall().Seconds(), ops/o.ph.wall().Seconds(), ms(o.ph.cpu())/ops, runtime.GOMAXPROCS(0), runtime.Version()),
		fmt.Sprintf("latency: p50 %.4f ms over %d samples; tail p%g %.4f ms (median over %d blocks of %d+ consecutive operations); mean %.4f ms; set-up runs %v",
			ms(s.p50), s.n, s.tailPct, ms(s.tail), s.blocks, s.n/s.blocks, ms(s.mean), o.setups),
		fmt.Sprintf("latency percentiles over the run: p90 %.4f p99 %.4f p99.9 %.4f p99.99 %.4f ms",
			ms(percentile(s.sorted, 90)), ms(percentile(s.sorted, 99)), ms(percentile(s.sorted, 99.9)), ms(percentile(s.sorted, 99.99))),
		fmt.Sprintf("speed probe: median wall %.4f ms over %d set-up probes; median wall %.4f ms and CPU %.4f ms over %d timed-phase probes (%.2f s left out of the phase); reference %.4f ms, so set-up times scale by %.4f, timed-phase wall times by %.4f and CPU times by %.4f",
			ms(probeRef)/setupScale, len(o.speed.setup), ms(probeRef)/timedScale, ms(probeRef)/cpuScale, len(o.speed.timed), o.ph.paused.Seconds(), ms(probeRef), setupScale, timedScale, cpuScale),
		fmt.Sprintf("raw, as measured: setup_s %.4f throughput_per_s %.4f latency_p50_ms %.4f latency_tail_ms %.4f cpu_ms_per_op %.4f",
			raw["setup_s"], raw["throughput_per_s"], raw["latency_p50_ms"], raw["latency_tail_ms"], raw["cpu_ms_per_op"]),
	}, o.report...)
	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
		}
		return res
	}
	// A traced run reports its own end-to-end figures among the layers,
	// so the tracing overhead is the difference from an untraced run.
	o.layers["traced.throughput_per_s"] = values["throughput_per_s"]
	o.layers["traced.latency_p50_ms"] = values["latency_p50_ms"]
	o.layers["machine.probe_ms"] = ms(probeRef) / timedScale
	addRuntimeLayers(o, ops)
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metricValue{Value: o.layers[m.name], Unit: m.unit}
		o.note("layer %-26s %14.6f %s", m.name, o.layers[m.name], m.unit)
	}
	return res
}

// addRuntimeLayers fills the runtime-layer metrics from the timed phase.
func addRuntimeLayers(o *outcome, ops float64) {
	ph := o.ph
	o.layers["runtime.gc_cycles"] = float64(ph.end.gcCycles - ph.begin.gcCycles)
	o.layers["runtime.gc_cpu_ms"] = (ph.end.gcCPU - ph.begin.gcCPU) * 1000 / ops
	o.layers["runtime.alloc_mb"] = float64(ph.allocBytes()) / (1 << 20)
	o.layers["runtime.sched_latency_p99_us"] = float64(ph.schedP99()) / float64(time.Microsecond)
}
