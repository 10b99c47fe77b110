package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"pharmaverify/internal/core"
	"pharmaverify/internal/featcache"
	"pharmaverify/internal/parallel"
)

// BenchLeg is one measured run of a runner at a fixed worker count.
type BenchLeg struct {
	Workers int   `json:"workers"`
	NS      int64 `json:"ns"`
	// Allocs / Bytes are runtime.MemStats Mallocs / TotalAlloc deltas.
	// Process-wide, so background allocation adds noise; the harness
	// runs legs back-to-back in one goroutine to keep them comparable.
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
	// Speedup is the 1-worker leg's NS divided by this leg's NS.
	Speedup float64 `json:"speedup"`
	// Efficiency is Speedup divided by Workers: 1.0 is perfect linear
	// scaling, values near 1/Workers mean the extra cores bought
	// nothing. Only meaningful when GOMAXPROCS allows the workers to
	// actually run in parallel.
	Efficiency float64 `json:"efficiency"`
	// Identical is true when this leg's rendered table bytes equal the
	// 1-worker leg's exactly.
	Identical bool `json:"identical"`
	// Grain records the partitioning the grain autotuner chose at each
	// named call site during this leg (e.g. "ensemble-cv": "hybrid
	// fold×3·doc×2·g16"), so the efficiency gate's failures can be
	// traced to a bad fold-vs-document split.
	Grain map[string]string `json:"grain,omitempty"`
	// Cache holds the shared feature cache's per-scope hit/miss
	// counters accumulated over this leg (the cache is purged before
	// each leg), so training-plane reuse is visible next to the timing
	// it explains.
	Cache map[string]featcache.CacheStats `json:"cache,omitempty"`
}

// heavyThresholdNS classifies entries for the parallel-efficiency gate:
// entries whose sequential leg runs at least this long (1 s) are
// dominated by the fan-out work the gate is meant to watch; sub-second
// entries are dominated by fixed setup cost and scale poorly no matter
// how healthy the worker pool is.
const heavyThresholdNS = int64(time.Second)

// BenchEntry records the worker-scaling measurement of one artifact
// runner: one leg per worker count in the report's matrix.
type BenchEntry struct {
	ID   string `json:"id"`
	Desc string `json:"desc"`
	// Legs holds one measurement per worker count, ascending; Legs[0]
	// is always the 1-worker sequential baseline.
	Legs []BenchLeg `json:"legs"`
	// Heavy marks entries whose sequential leg reached heavyThresholdNS;
	// only heavy entries are judged by the parallel-efficiency gate.
	Heavy bool `json:"heavy"`
	// Identical is the determinism check: true when every leg's rendered
	// table bytes equal the sequential leg's exactly.
	Identical bool `json:"identical"`
}

// BenchReport is the machine-readable benchmark artifact emitted by
// `experiments -bench-json` (BENCH_evaluation.json).
type BenchReport struct {
	Scale   string `json:"scale"`
	Seed    int64  `json:"seed"`
	Workers int    `json:"workers"`
	// WorkerMatrix lists the worker counts each entry was measured at,
	// ascending; it always starts with 1 and ends with Workers.
	WorkerMatrix []int `json:"worker_matrix"`
	// NumCPU and GoMaxProcs record the host core topology the run saw
	// (runtime.NumCPU vs the effective GOMAXPROCS); MultiCore derives
	// from them so a single-core artifact is self-describing — its
	// efficiency legs measure goroutine switching, not scaling, and
	// the efficiency gate skips it.
	NumCPU     int          `json:"num_cpu"`
	GoMaxProcs int          `json:"gomaxprocs"`
	MultiCore  bool         `json:"multi_core"`
	GoVersion  string       `json:"go_version"`
	Entries    []BenchEntry `json:"entries"`
	// AllIdentical is true when every entry's parallel output matched
	// its sequential output byte for byte.
	AllIdentical bool `json:"all_identical"`
}

// benchLeg runs one runner once with the given process-wide default
// worker count on a fresh result cache, returning the rendered table
// bytes, wall time, and allocation deltas.
func benchLeg(base *Env, r Runner, workers int) (out []byte, leg BenchLeg, err error) {
	// Fresh caches so the leg measures real work, not memo hits; the
	// shared feature cache is cleared too since both legs would
	// otherwise reuse each other's featurizations.
	e := base.Fresh()
	core.ResetFeatureCache()
	parallel.ResetGrainDecisions()

	prev := parallel.Default()
	parallel.SetDefault(workers)
	defer parallel.SetDefault(prev)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	tab, err := r.Run(e)
	ns := int64(time.Since(start))
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, BenchLeg{}, fmt.Errorf("%s: %w", r.ID, err)
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		return nil, BenchLeg{}, err
	}
	leg = BenchLeg{
		Workers: workers,
		NS:      ns,
		Allocs:  after.Mallocs - before.Mallocs,
		Bytes:   after.TotalAlloc - before.TotalAlloc,
		Grain:   parallel.GrainDecisions(),
		Cache:   core.FeatureCacheScopeStats(),
	}
	return buf.Bytes(), leg, nil
}

// workerMatrix builds the ascending, deduplicated list of worker
// counts to measure: always 1 (the baseline), an intermediate point at
// 2 when max allows one, and max itself. Three points are enough to
// tell "scales" from "flat" from "degrades" without tripling the run.
func workerMatrix(max int) []int {
	m := []int{1}
	if max > 2 {
		m = append(m, 2)
	}
	if max > 1 {
		m = append(m, max)
	}
	return m
}

// RunBenchmark measures every listed runner at each worker count in
// workerMatrix(workers) — 1 is the sequential baseline — and reports
// wall time, allocations, speedup, per-leg parallel efficiency, and
// whether every leg's rendered output is byte-identical to the
// baseline's.
// ids selects runner IDs; nil means every runner in the registry.
// workers <= 0 uses the machine's CPU count for the widest leg, so the
// recorded numbers reflect an actually-parallel run even under a
// capped GOMAXPROCS.
func RunBenchmark(e *Env, ids []string, workers int) (*BenchReport, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var runners []Runner
	if ids == nil {
		runners = Runners
	} else {
		for _, id := range ids {
			r := FindRunner(id)
			if r == nil {
				return nil, fmt.Errorf("bench: unknown artifact %q", id)
			}
			runners = append(runners, *r)
		}
	}

	matrix := workerMatrix(workers)
	rep := &BenchReport{
		Scale:        e.Scale.Name,
		Seed:         e.Scale.Seed,
		Workers:      workers,
		WorkerMatrix: matrix,
		NumCPU:       runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		MultiCore:    runtime.NumCPU() > 1 && runtime.GOMAXPROCS(0) > 1,
		GoVersion:    runtime.Version(),
		AllIdentical: true,
	}
	for _, r := range runners {
		entry := BenchEntry{ID: r.ID, Desc: r.Desc, Identical: true}
		var baseOut []byte
		for _, w := range matrix {
			out, leg, err := benchLeg(e, r, w)
			if err != nil {
				return nil, err
			}
			if w == 1 {
				baseOut = out
				leg.Speedup, leg.Efficiency, leg.Identical = 1, 1, true
			} else {
				if leg.NS > 0 {
					leg.Speedup = float64(entry.Legs[0].NS) / float64(leg.NS)
					leg.Efficiency = leg.Speedup / float64(w)
				}
				leg.Identical = bytes.Equal(baseOut, out)
			}
			if !leg.Identical {
				entry.Identical = false
			}
			entry.Legs = append(entry.Legs, leg)
		}
		entry.Heavy = entry.Legs[0].NS >= heavyThresholdNS
		rep.Entries = append(rep.Entries, entry)
		if !entry.Identical {
			rep.AllIdentical = false
		}
	}
	return rep, nil
}

// DefaultEfficiencyFloor is the parallel-efficiency minimum enforced by
// CheckParallelEfficiency. 0.35 means the widest leg must convert at least 35% of its extra
// workers into speedup on heavy entries — e.g. >= 1.4x at 4 workers —
// lax enough for hyperthreaded CI runners, strict enough to catch an
// accidentally serialized pipeline (efficiency 1/N: 0.25 at 4 workers,
// less on wider machines).
const DefaultEfficiencyFloor = 0.35

// CheckParallelEfficiency gates multi-core scaling: every heavy entry
// (sequential leg >= 1 s) must keep the parallel efficiency of its
// widest leg at or above DefaultEfficiencyFloor, and every leg must
// have stayed byte-identical to the sequential baseline. Reports recorded with
// GOMAXPROCS=1 or a 1-worker matrix are skipped with a nil error —
// worker counts beyond the scheduler's parallelism measure goroutine
// switching, not scaling — so single-core dev machines can still run
// the harness; CI provides the multi-core enforcement run.
func CheckParallelEfficiency(rep *BenchReport) error {
	if rep.GoMaxProcs <= 1 || rep.Workers <= 1 {
		return nil
	}
	heavy := 0
	for _, e := range rep.Entries {
		if len(e.Legs) == 0 {
			return fmt.Errorf("bench: entry %s has no legs", e.ID)
		}
		if !e.Identical {
			return fmt.Errorf("bench: entry %s: parallel output no longer byte-identical to the sequential baseline", e.ID)
		}
		if !e.Heavy {
			continue
		}
		heavy++
		last := e.Legs[len(e.Legs)-1]
		if last.Efficiency < DefaultEfficiencyFloor {
			return fmt.Errorf("bench: entry %s: parallel efficiency %.2f at %d workers below the %.2f floor (speedup %.2fx)",
				e.ID, last.Efficiency, last.Workers, DefaultEfficiencyFloor, last.Speedup)
		}
	}
	if heavy == 0 {
		return fmt.Errorf("bench: no heavy entries (sequential leg >= %v) to judge — run at a scale with multi-second entries", time.Duration(heavyThresholdNS))
	}
	return nil
}

// WriteJSON emits the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
