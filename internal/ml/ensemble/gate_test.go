package ensemble

import (
	"math/rand"
	"slices"
	"testing"

	"pharmaverify/internal/eval"
	"pharmaverify/internal/kernelgate"
	"pharmaverify/internal/parallel"
)

// selectionGate holds the ensemble-selection bars: SelectGreedy against
// SelectGreedyReference. The kernel drops the per-comparison metric
// calls and the per-bag slices, so both ratios carry the
// optimization's 2x acceptance bar.
var selectionGate = kernelgate.Bars{Speedup: 2.0, AllocRatio: 2.0, AllocsOp: 1028}

// selectionGateWorkload is the gate's synthetic selection problem: a
// library of probability columns over a labeled hillclimb set, shaped
// like the Table-8 ensemble experiment (a few dozen models over a few
// hundred instances).
func selectionGateWorkload() (probs [][]float64, labels []int) {
	rng := rand.New(rand.NewSource(424242))
	const models, n = 28, 420
	labels = make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(2)
	}
	probs = make([][]float64, models)
	for m := range probs {
		probs[m] = make([]float64, n)
		skill := 0.1 + 0.8*rng.Float64() // models of varying quality
		for i := range probs[m] {
			p := rng.Float64()
			if rng.Float64() < skill {
				p = 0.5*p + 0.5*float64(labels[i])
			}
			probs[m][i] = p
		}
	}
	return probs, labels
}

var gateSink []int

// selectionGatePaths pins the process worker default to 1 for the rest
// of tb, so the gate records the single-thread algorithmic win, and
// returns the two timed calls after failing tb unless they select the
// same sequence.
func selectionGatePaths(tb testing.TB) (naive, kernel func()) {
	tb.Helper()
	prev := parallel.Default()
	parallel.SetDefault(1)
	tb.Cleanup(func() { parallel.SetDefault(prev) })

	probs, labels := selectionGateWorkload()
	want, got := SelectGreedyReference(probs, labels, 2, 20, eval.AUC), SelectGreedy(probs, labels, 2, 20, eval.AUC)
	if !slices.Equal(got, want) {
		tb.Fatalf("SelectGreedy picked %v, the reference %v", got, want)
	}
	naive = func() { gateSink = SelectGreedyReference(probs, labels, 2, 20, eval.AUC) }
	kernel = func() { gateSink = SelectGreedy(probs, labels, 2, 20, eval.AUC) }
	return naive, kernel
}

// TestKernelGate checks the ensemble-selection gate's deterministic
// half: identical output and the allocation-ratio floor on the gate
// workload.
func TestKernelGate(t *testing.T) {
	naive, kernel := selectionGatePaths(t)
	kernelgate.CheckAllocRatio(t, selectionGate, 3, naive, kernel)
}

// BenchmarkKernelGate times the ensemble-selection gate against all its
// bars (see package kernelgate).
func BenchmarkKernelGate(b *testing.B) {
	naive, kernel := selectionGatePaths(b)
	kernelgate.Run(b, selectionGate, naive, kernel)
}
