package vectorize

import (
	"math"
	"math/bits"

	"pharmaverify/internal/ml"
)

// Vectorizer converts documents to sparse vectors against a frozen
// vocabulary using reusable scratch buffers: per-document work is
// linear in the document's terms plus one bitmap word per 64
// vocabulary indices between its lowest and highest term, and
// allocation is two short slices for the resulting vector, instead of
// a fresh map plus per-term IDF recomputation. The IDF vector is precomputed once at construction
// (via Vocabulary.IDFVector).
//
// Output vectors are bit-for-bit identical to Vocabulary.Counts and
// Vocabulary.TFIDF: counts accumulate the same unit increments, and
// TF-IDF weights and the L2 norm are computed in the same ascending
// feature-index order.
//
// A Vectorizer is not safe for concurrent use; give each goroutine its
// own (they are cheap after the vocabulary-sized buffers are built) or
// pool them, as core.Verifier does on the serving path. The vocabulary
// may keep growing between calls — the scratch resizes lazily — but
// never during one.
type Vectorizer struct {
	vocab *Vocabulary
	idf   []float64
	// cnt accumulates term frequencies for the current document. seen
	// has bit i set once index i is touched by the current document,
	// which marks cnt[i] as this document's; gather reads the set bits
	// back in ascending order and clears them, so seen is all zero
	// between calls and no O(vocab) wipe is needed.
	cnt     []float64
	seen    []uint64
	touched []int32 // distinct in-vocabulary indices of the current document
}

// NewVectorizer builds a Vectorizer over the vocabulary.
func NewVectorizer(v *Vocabulary) *Vectorizer {
	z := &Vectorizer{vocab: v}
	z.resync()
	return z
}

// resync grows the scratch to the vocabulary's current size (a no-op
// once the vocabulary is frozen) and refreshes the IDF view.
func (z *Vectorizer) resync() {
	if n := z.vocab.Size(); len(z.cnt) < n {
		z.cnt = make([]float64, n)
		z.seen = make([]uint64, (n+63)/64)
	}
	z.idf = z.vocab.IDFVector()
}

// gather folds the document's terms into the scratch counters and
// returns the distinct touched indices in ascending order. The slice
// aliases the Vectorizer's scratch — valid until the next call.
//
// The ascending order comes from the seen bitmap: the words between
// the lowest and highest touched word are scanned once, each set bit
// emitted lowest first and each word cleared as it is read.
func (z *Vectorizer) gather(terms []string) []int32 {
	z.resync()
	lo, hi := len(z.seen), -1
	for _, t := range terms {
		i, ok := z.vocab.index[t]
		if !ok {
			continue
		}
		if w, bit := i>>6, uint64(1)<<(i&63); z.seen[w]&bit == 0 {
			z.seen[w] |= bit
			z.cnt[i] = 0
			lo, hi = min(lo, w), max(hi, w)
		}
		z.cnt[i]++
	}
	z.touched = z.touched[:0]
	for w := lo; w <= hi; w++ {
		for b := z.seen[w]; b != 0; b &= b - 1 {
			z.touched = append(z.touched, int32(w<<6+bits.TrailingZeros64(b)))
		}
		z.seen[w] = 0
	}
	return z.touched
}

// Counts vectorizes a document as raw term counts, identically to
// Vocabulary.Counts.
func (z *Vectorizer) Counts(terms []string) ml.Vector {
	tl := z.gather(terms)
	v := ml.Vector{Ind: make([]int32, len(tl)), Val: make([]float64, len(tl))}
	for k, i := range tl {
		v.Ind[k] = i
		v.Val[k] = z.cnt[i]
	}
	return v
}

// TFIDF vectorizes a document with L2-normalized TF-IDF weights,
// identically to Vocabulary.TFIDF: weights and norm accumulate in
// ascending feature-index order, so the rounding matches bit for bit.
func (z *Vectorizer) TFIDF(terms []string) ml.Vector {
	tl := z.gather(terms)
	v := ml.Vector{Ind: make([]int32, len(tl)), Val: make([]float64, len(tl))}
	var norm float64
	for k, i := range tl {
		w := z.cnt[i] * z.idf[i]
		v.Ind[k] = i
		v.Val[k] = w
		norm += w * w
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for k := range v.Val {
			v.Val[k] /= norm
		}
	}
	return v
}

// Vector applies the given weighting, dispatching like Corpus.Dataset.
func (z *Vectorizer) Vector(terms []string, w Weighting) ml.Vector {
	if w == WeightCounts {
		return z.Counts(terms)
	}
	return z.TFIDF(terms)
}
