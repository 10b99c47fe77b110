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
	"pharmaverify/internal/ngram"
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

// kernelWorkload is the shared synthetic corpus: a lexicon of random
// words, document texts drawn from it, their prebuilt graphs, and the
// two class graphs the serving path compares against.
type kernelWorkload struct {
	texts     []string
	docGraphs []*ngram.Graph
	legit     *ngram.Graph
	illegit   *ngram.Graph

	termDocs [][]string
	vocab    *vectorize.Vocabulary
}

func newKernelWorkload() *kernelWorkload {
	rng := rand.New(rand.NewSource(kernelSeed))
	lexicon := make([]string, 400)
	for i := range lexicon {
		b := make([]byte, 3+rng.Intn(6))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		lexicon[i] = string(b)
	}
	text := func(words int) string {
		var sb strings.Builder
		for i := 0; i < words; i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(lexicon[rng.Intn(len(lexicon))])
		}
		return sb.String()
	}

	w := &kernelWorkload{}
	classDocs := func(n int) []*ngram.Graph {
		gs := make([]*ngram.Graph, n)
		for i := range gs {
			gs[i] = ngram.FromDocument(text(150))
		}
		return gs
	}
	w.legit = ngram.MergeAll(classDocs(24))
	w.illegit = ngram.MergeAll(classDocs(24))

	w.texts = make([]string, 32)
	w.docGraphs = make([]*ngram.Graph, len(w.texts))
	for i := range w.texts {
		w.texts[i] = text(150)
		w.docGraphs[i] = ngram.FromDocument(w.texts[i])
	}

	train := make([][]string, 300)
	for i := range train {
		train[i] = strings.Fields(text(120))
	}
	w.vocab = vectorize.BuildVocabulary(train)
	w.termDocs = make([][]string, 64)
	for i := range w.termDocs {
		w.termDocs[i] = strings.Fields(text(120))
	}
	return w
}

// naiveEight is the pre-kernel Compare path: the four standalone
// similarity functions against each class, with NormalizedValue
// recomputing Size and Value internally.
func naiveEight(g, legit, illegit *ngram.Graph) [8]float64 {
	return [8]float64{
		ngram.ContainmentSimilarity(g, legit),
		ngram.SizeSimilarity(g, legit),
		ngram.ValueSimilarity(g, legit),
		ngram.NormalizedValueSimilarity(g, legit),
		ngram.ContainmentSimilarity(g, illegit),
		ngram.SizeSimilarity(g, illegit),
		ngram.ValueSimilarity(g, illegit),
		ngram.NormalizedValueSimilarity(g, illegit),
	}
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

// RunKernelBenchmarks measures the single-pass feature kernels against
// their naive reference implementations on a fixed synthetic workload
// and reports per-op time, allocations and byte-identity (see
// measurePair). benchtime <= 0 uses DefaultKernelBenchtime per batch.
func RunKernelBenchmarks(benchtime time.Duration) []KernelEntry {
	if benchtime <= 0 {
		benchtime = DefaultKernelBenchtime
	}
	w := newKernelWorkload()
	var entries []KernelEntry

	// Text to 8-feature vector against map-based class graphs, one
	// document at a time (the daemon never featurizes with n-gram
	// graphs; training folds use the interned ngram.Corpus). Naive =
	// FromDocument + the four standalone functions per class; kernel =
	// pooled builder + single-pass CompareBoth.
	{
		e := KernelEntry{
			ID:        "ngg-compare-both",
			Desc:      "text -> 8 NGG features vs both class graphs (pooled builder + single pass vs FromDocument + 4 standalone functions x2)",
			Identical: true,
		}
		for i, text := range w.texts {
			want := naiveEight(w.docGraphs[i], w.legit, w.illegit)
			got := ngram.DocFeatures(nil, text, w.legit, w.illegit)
			for k := range want {
				if got[k] != want[k] {
					e.Identical = false
				}
			}
		}
		var i, j int
		var buf []float64
		e.NaiveNSOp, e.KernelNSOp, e.NaiveAllocsOp, e.KernelAllocsOp = measurePair(benchtime, func() {
			g := ngram.FromDocument(w.texts[i%len(w.texts)])
			f := naiveEight(g, w.legit, w.illegit)
			kernelSink += f[0]
			i++
		}, func() {
			buf = ngram.DocFeatures(buf, w.texts[j%len(w.texts)], w.legit, w.illegit)
			kernelSink += buf[0]
			j++
		})
		finishKernelEntry(&e)
		entries = append(entries, e)
	}

	// Prebuilt graphs: isolates the single-traversal win of CompareBoth
	// over eight standalone calls (which walk the document's edges about
	// eight times between them). Neither path allocates, so only the
	// time ratio is meaningful here.
	{
		e := KernelEntry{
			ID:        "ngg-compare-graphs",
			Desc:      "prebuilt graphs -> CompareBoth vs 4 standalone similarity functions x2 classes",
			Identical: true,
		}
		for _, g := range w.docGraphs {
			want := naiveEight(g, w.legit, w.illegit)
			a, b := ngram.CompareBoth(g, w.legit, w.illegit)
			got := [8]float64{a.CS, a.SS, a.VS, a.NVS, b.CS, b.SS, b.VS, b.NVS}
			if got != want {
				e.Identical = false
			}
		}
		var i, j int
		e.NaiveNSOp, e.KernelNSOp, e.NaiveAllocsOp, e.KernelAllocsOp = measurePair(benchtime, func() {
			f := naiveEight(w.docGraphs[i%len(w.docGraphs)], w.legit, w.illegit)
			kernelSink += f[0]
			i++
		}, func() {
			a, b := ngram.CompareBoth(w.docGraphs[j%len(w.docGraphs)], w.legit, w.illegit)
			kernelSink += a.CS + b.CS
			j++
		})
		finishKernelEntry(&e)
		entries = append(entries, e)
	}

	// Sparse TF-IDF vectorization: the scratch-buffer Vectorizer against
	// the map-based Vocabulary.TFIDF, as on the daemon's request path.
	{
		e := KernelEntry{
			ID:        "tfidf-sparse",
			Desc:      "terms -> L2-normalized TF-IDF vector (scratch-buffer Vectorizer vs map-based Vocabulary.TFIDF)",
			Identical: true,
		}
		z := vectorize.NewVectorizer(w.vocab)
		for _, doc := range w.termDocs {
			if !vectorsEqual(z.TFIDF(doc), w.vocab.TFIDF(doc)) {
				e.Identical = false
			}
		}
		var i, j int
		var nv, kv ml.Vector
		e.NaiveNSOp, e.KernelNSOp, e.NaiveAllocsOp, e.KernelAllocsOp = measurePair(benchtime, func() {
			nv = w.vocab.TFIDF(w.termDocs[i%len(w.termDocs)])
			i++
		}, func() {
			kv = z.TFIDF(w.termDocs[j%len(w.termDocs)])
			j++
		})
		if len(nv.Val) > 0 {
			kernelSink += nv.Val[0]
		}
		if len(kv.Val) > 0 {
			kernelSink += kv.Val[0]
		}
		finishKernelEntry(&e)
		entries = append(entries, e)
	}

	return entries
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
	"ngg-compare-both": {speedup: 2.02, allocRatio: 2.0, allocsOp: 2.02},
	// One map lookup per class per edge still pays the same per-lookup
	// cost as the ~6 lookups it replaces, so the prebuilt-graphs entry
	// lands near 2x rather than 6x. Neither path allocates.
	"ngg-compare-graphs": {speedup: 1.5, allocsOp: 2},
	"tfidf-sparse":       {speedup: 1.99, allocRatio: 2.0, allocsOp: 5},
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
