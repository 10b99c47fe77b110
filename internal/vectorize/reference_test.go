package vectorize

import (
	"math"

	"pharmaverify/internal/ml"
)

// This file holds the naive, map-based vectorization the scratch-buffer
// Vectorizer (sparse.go) is pinned against: the property tests compare
// the two bit for bit and BenchmarkKernelGate times them.

// TermCounts computes the raw term-frequency map of a document,
// skipping out-of-vocabulary terms.
func (v *Vocabulary) TermCounts(terms []string) map[int]float64 {
	m := make(map[int]float64)
	for _, t := range terms {
		if i, ok := v.index[t]; ok {
			m[i]++
		}
	}
	return m
}

// Counts vectorizes a document as raw term counts (the representation
// the multinomial Naïve Bayes model expects).
func (v *Vocabulary) Counts(terms []string) ml.Vector {
	return ml.FromMap(v.TermCounts(terms))
}

// TFIDF vectorizes a document with TF-IDF weights, L2-normalized (the
// standard variant used for SVMs and trees on text).
//
// The norm is accumulated in ascending feature-index order: summing
// over the counts map's randomized iteration order would change the
// rounding of the norm between runs and thus the last bits of every
// weight. The fixed order keeps the vector bit-for-bit reproducible
// and lets the Vectorizer match it exactly.
func (v *Vocabulary) TFIDF(terms []string) ml.Vector {
	vec := ml.FromMap(v.TermCounts(terms))
	var norm float64
	for k, i := range vec.Ind {
		w := vec.Val[k] * v.IDF(int(i))
		vec.Val[k] = w
		norm += w * w
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for k := range vec.Val {
			vec.Val[k] /= norm
		}
	}
	return vec
}
