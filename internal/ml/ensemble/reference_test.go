package ensemble

import (
	"sort"

	"pharmaverify/internal/eval"
)

// SelectGreedyReference is the pre-kernel implementation of SelectGreedy,
// kept as the naive reference: the sort re-evaluates the metric inside
// its comparator and every candidate bag averages into a fresh slice.
// TestSelectGreedyMatchesReference pins SelectGreedy against it (same
// selections) and BenchmarkKernelGate times the two (strictly fewer
// metric calls and allocations).
func SelectGreedyReference(probs [][]float64, labels []int, initTopN, maxRounds int, metric func([]float64, []int) float64) []int {
	if len(probs) == 0 {
		return nil
	}
	if metric == nil {
		metric = eval.AUC
	}
	if initTopN <= 0 {
		initTopN = 2
	}
	if maxRounds <= 0 {
		maxRounds = 20
	}
	n := len(labels)

	single := make([]int, len(probs))
	for i := range single {
		single[i] = i
	}
	sort.SliceStable(single, func(a, b int) bool {
		return metric(probs[single[a]], labels) > metric(probs[single[b]], labels)
	})
	if initTopN > len(single) {
		initTopN = len(single)
	}
	selected := append([]int{}, single[:initTopN]...)

	sum := make([]float64, n)
	for _, m := range selected {
		for i := 0; i < n; i++ {
			sum[i] += probs[m][i]
		}
	}
	current := bagMetric(sum, len(selected), labels, metric)
	cand := make([]float64, n)
	for round := 0; round < maxRounds; round++ {
		best, bestScore := -1, current
		for m := range probs {
			for i := 0; i < n; i++ {
				cand[i] = sum[i] + probs[m][i]
			}
			if sc := bagMetric(cand, len(selected)+1, labels, metric); sc > bestScore {
				best, bestScore = m, sc
			}
		}
		if best < 0 {
			break
		}
		selected = append(selected, best)
		for i := 0; i < n; i++ {
			sum[i] += probs[best][i]
		}
		current = bestScore
	}
	return selected
}

func bagMetric(sum []float64, n int, labels []int, metric func([]float64, []int) float64) float64 {
	avg := make([]float64, len(sum))
	for i, v := range sum {
		avg[i] = v / float64(n)
	}
	return metric(avg, labels)
}
