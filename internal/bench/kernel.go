package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"pharmaverify/internal/ml"
	"pharmaverify/internal/vectorize"
)

// KernelEntry records the micro-benchmark of one optimized feature
// kernel against its naive reference implementation: nanoseconds and
// heap allocations per operation for both paths, the resulting ratios,
// and whether the two paths still produce bit-identical output on the
// benchmark workload.
type KernelEntry struct {
	ID   string `json:"id"`
	Desc string `json:"desc"`
	// NaiveNSOp / KernelNSOp are nanoseconds per operation.
	NaiveNSOp  float64 `json:"naive_ns_op"`
	KernelNSOp float64 `json:"kernel_ns_op"`
	// NaiveAllocsOp / KernelAllocsOp are heap allocations per operation
	// (runtime.MemStats.Mallocs deltas over the timed loop).
	NaiveAllocsOp  float64 `json:"naive_allocs_op"`
	KernelAllocsOp float64 `json:"kernel_allocs_op"`
	// Speedup is NaiveNSOp / KernelNSOp.
	Speedup float64 `json:"speedup"`
	// AllocRatio is NaiveAllocsOp divided by KernelAllocsOp, with the
	// kernel count clamped to at least 1 so a zero-allocation kernel
	// yields a finite ratio.
	AllocRatio float64 `json:"alloc_ratio"`
	// Identical is true when the kernel path reproduced the naive path's
	// output bit for bit on every workload input.
	Identical bool `json:"identical"`
}

// DefaultKernelBenchtime is the per-batch target used when
// RunKernelBenchmarks is called with a non-positive benchtime. Kernel
// regressions are judged by within-process ratios (Speedup,
// AllocRatio) over the fastest of pairRounds interleaved batch pairs,
// so a short window is enough.
const DefaultKernelBenchtime = 100 * time.Millisecond

// kernelSink defeats dead-code elimination of the benchmark bodies.
var kernelSink float64

// pairRounds is how many interleaved naive/kernel batch pairs
// measurePair times.
const pairRounds = 5

// calibrate runs f in growing batches until one takes at least
// benchtime and returns that batch's iteration count.
func calibrate(benchtime time.Duration, f func()) int {
	f() // warmup: pools filled, caches primed, code paths jitted into icache
	target := int64(benchtime)
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		ns := int64(time.Since(start))
		if ns >= target || iters >= 1<<24 {
			return iters
		}
		next := iters * 4
		if ns > 0 {
			next = int(float64(iters)*float64(target)/float64(ns)*1.2) + 1
		}
		if next <= iters {
			next = iters * 2
		}
		iters = next
	}
}

// timeBatch runs f iters times and returns nanoseconds and heap
// allocations per call. Allocations are process-wide Mallocs deltas;
// the caller runs single-goroutine so the numbers are attributable to f.
func timeBatch(iters int, f func()) (nsOp, allocsOp float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	ns := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(ns) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// measurePair times naive against kernel in pairRounds interleaved
// pairs of batches, each batch calibrated to about benchtime, and
// reports each side's fastest batch and fewest allocations per call. A
// slowdown of the shared machine lasting part of the run then hits
// both sides of the pairs it spans, and taking the minimum discards it
// rather than averaging it into one side's mean.
func measurePair(benchtime time.Duration, naive, kernel func()) (naiveNS, kernelNS, naiveAllocs, kernelAllocs float64) {
	ni, ki := calibrate(benchtime, naive), calibrate(benchtime, kernel)
	naiveNS, kernelNS = math.Inf(1), math.Inf(1)
	naiveAllocs, kernelAllocs = math.Inf(1), math.Inf(1)
	for r := 0; r < pairRounds; r++ {
		ns, allocs := timeBatch(ni, naive)
		naiveNS, naiveAllocs = min(naiveNS, ns), min(naiveAllocs, allocs)
		ns, allocs = timeBatch(ki, kernel)
		kernelNS, kernelAllocs = min(kernelNS, ns), min(kernelAllocs, allocs)
	}
	return naiveNS, kernelNS, naiveAllocs, kernelAllocs
}

func finishKernelEntry(e *KernelEntry) {
	if e.KernelNSOp > 0 {
		e.Speedup = e.NaiveNSOp / e.KernelNSOp
	}
	ka := e.KernelAllocsOp
	if ka < 1 {
		ka = 1
	}
	e.AllocRatio = e.NaiveAllocsOp / ka
}

// kernelSeed fixes the synthetic workload; the micro-benchmarks need no
// dataset Env, so `experiments -bench-kernel-check` runs in well under a
// second.
const kernelSeed = 424242

// tfidfWorkload is the shared synthetic corpus of the TF-IDF entry:
// a vocabulary built from 300 training documents and 64 term lists to
// vectorize, all drawn from one lexicon of random words.
func tfidfWorkload() (vocab *vectorize.Vocabulary, termDocs [][]string) {
	rng := rand.New(rand.NewSource(kernelSeed))
	lexicon := make([]string, 400)
	for i := range lexicon {
		b := make([]byte, 3+rng.Intn(6))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		lexicon[i] = string(b)
	}
	terms := func(words int) []string {
		out := make([]string, words)
		for i := range out {
			out[i] = lexicon[rng.Intn(len(lexicon))]
		}
		return out
	}
	train := make([][]string, 300)
	for i := range train {
		train[i] = terms(120)
	}
	termDocs = make([][]string, 64)
	for i := range termDocs {
		termDocs[i] = terms(120)
	}
	return vectorize.BuildVocabulary(train), termDocs
}

func vectorsEqual(a, b ml.Vector) bool {
	if len(a.Ind) != len(b.Ind) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Ind {
		if a.Ind[i] != b.Ind[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

// RunKernelBenchmarks measures the request-path feature kernels
// against their naive reference implementations on a fixed synthetic
// workload and reports per-op time, allocations and byte-identity (see
// measurePair). benchtime <= 0 uses DefaultKernelBenchtime per batch.
// Its one entry is sparse TF-IDF vectorization: the scratch-buffer
// Vectorizer against the map-based Vocabulary.TFIDF, as on the
// daemon's request path.
func RunKernelBenchmarks(benchtime time.Duration) []KernelEntry {
	if benchtime <= 0 {
		benchtime = DefaultKernelBenchtime
	}
	vocab, termDocs := tfidfWorkload()
	e := KernelEntry{
		ID:        "tfidf-sparse",
		Desc:      "terms -> L2-normalized TF-IDF vector (scratch-buffer Vectorizer vs map-based Vocabulary.TFIDF)",
		Identical: true,
	}
	z := vectorize.NewVectorizer(vocab)
	for _, doc := range termDocs {
		if !vectorsEqual(z.TFIDF(doc), vocab.TFIDF(doc)) {
			e.Identical = false
		}
	}
	var i, j int
	var nv, kv ml.Vector
	e.NaiveNSOp, e.KernelNSOp, e.NaiveAllocsOp, e.KernelAllocsOp = measurePair(benchtime, func() {
		nv = vocab.TFIDF(termDocs[i%len(termDocs)])
		i++
	}, func() {
		kv = z.TFIDF(termDocs[j%len(termDocs)])
		j++
	})
	if len(nv.Val) > 0 {
		kernelSink += nv.Val[0]
	}
	if len(kv.Val) > 0 {
		kernelSink += kv.Val[0]
	}
	finishKernelEntry(&e)
	return []KernelEntry{e}
}

// kernelFloors holds every kernel entry's bars; an entry without a row
// fails the gate. speedup is the minimum within-process Speedup,
// allocRatio the minimum AllocRatio (0 where the naive path does not
// allocate), allocsOp the most KernelAllocsOp. A speedup bar is
// max(the optimization's acceptance bar, a single-core measurement /
// 1.5), rounded up, and a ceiling that measurement × 1.5 + 2, rounded
// down: the 1.5 band absorbs what noise the fastest-of-five pairing
// leaves on a shared runner.
var kernelFloors = map[string]struct{ speedup, allocRatio, allocsOp float64 }{
	"tfidf-sparse": {speedup: 1.99, allocRatio: 2.0, allocsOp: 5},
	// Training-path kernels (training.go). Ensemble selection drops the
	// per-comparison metric calls and per-bag slices, so both ratios
	// carry the optimization's 2x acceptance bar; the webgen kernel's
	// headline win is allocations (fmt/Builder intermediates gone).
	"ensemble-selection": {speedup: 2.0, allocRatio: 2.0, allocsOp: 1028},
	"webgen-world":       {speedup: 5.65, allocRatio: 2.0, allocsOp: 18735},
}

// CheckKernelFloors checks the deterministic acceptance bars of every
// entry: a row in kernelFloors, output bit-identical to the naive
// reference and the allocation-ratio floor. Allocation counts do not
// depend on how busy the machine is, so unit tests run this check; the
// wall-clock and allocs/op bars are CheckKernelRegression's, which the
// CI bench-regression gate runs.
func CheckKernelFloors(entries []KernelEntry) error {
	for _, e := range entries {
		if err := checkDeterministic(e); err != nil {
			return err
		}
	}
	return nil
}

func checkDeterministic(e KernelEntry) error {
	fl, ok := kernelFloors[e.ID]
	if !ok {
		return fmt.Errorf("bench: kernel %s has no row in kernelFloors", e.ID)
	}
	if !e.Identical {
		return fmt.Errorf("bench: kernel %s: output no longer bit-identical to the naive reference", e.ID)
	}
	if fl.allocRatio > 0 && e.AllocRatio < fl.allocRatio {
		return fmt.Errorf("bench: kernel %s: alloc ratio %.2fx below the %.1fx floor", e.ID, e.AllocRatio, fl.allocRatio)
	}
	return nil
}

// CheckKernelRegression gates a fresh run of every kernel entry
// (RunKernelBenchmarks and RunTrainingBenchmarks together). Absolute
// ns/op is not portable across machines, so the check is ratio-based:
// each entry must pass CheckKernelFloors, keep its within-process
// Speedup at or above its bar and its kernel allocations per op at or
// below its ceiling, and every row of kernelFloors must have been run.
// The speed checks time a shared machine, so they belong in a gate that
// measures on purpose (experiments -bench-kernel-check), not in go test.
func CheckKernelRegression(cur []KernelEntry) error {
	ran := make(map[string]bool, len(cur))
	for _, c := range cur {
		if err := checkDeterministic(c); err != nil {
			return err
		}
		fl := kernelFloors[c.ID]
		if c.Speedup < fl.speedup {
			return fmt.Errorf("bench: kernel %s: speedup %.2fx below the %.2fx floor", c.ID, c.Speedup, fl.speedup)
		}
		if c.KernelAllocsOp > fl.allocsOp {
			return fmt.Errorf("bench: kernel %s: %.1f allocs/op exceeds the ceiling of %.2f", c.ID, c.KernelAllocsOp, fl.allocsOp)
		}
		ran[c.ID] = true
	}
	var missing []string
	for id := range kernelFloors {
		if !ran[id] {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("bench: kernel entries missing from the run: %s", strings.Join(missing, ", "))
	}
	return nil
}
