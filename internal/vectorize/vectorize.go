// Package vectorize implements the Term Vector representation model of
// the paper (§4.1.1): a vocabulary built from the training documents and
// TF-IDF weighting of term occurrences, producing the sparse vectors
// consumed by the classifiers.
package vectorize

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"pharmaverify/internal/ml"
	"pharmaverify/internal/parallel"
)

// Vocabulary maps terms to contiguous feature indices and carries the
// document frequencies needed for IDF weighting.
type Vocabulary struct {
	index map[string]int
	terms []string
	df    []int // document frequency per term
	docs  int   // number of documents seen

	// seenGen/gen implement the per-document "term already counted"
	// check without allocating a fresh set for every document:
	// seenGen[i] == gen means term i was seen in the current document.
	// Bumping gen invalidates the whole slice in O(1).
	seenGen []int
	gen     int

	// idfMu guards the memoized IDF vector. The cache key is (docs,
	// term count): AddDocument always bumps docs, so any mutation
	// invalidates it.
	idfMu    sync.Mutex
	idfCache []float64
	idfDocs  int
}

// BuildVocabulary constructs a vocabulary over the given tokenized
// documents. Every distinct term becomes a feature; document
// frequencies are recorded for IDF.
func BuildVocabulary(docs [][]string) *Vocabulary {
	v := &Vocabulary{index: make(map[string]int)}
	for _, doc := range docs {
		v.AddDocument(doc)
	}
	return v
}

// AddDocument folds one more document into the vocabulary.
func (v *Vocabulary) AddDocument(terms []string) {
	v.docs++
	v.gen++
	for _, t := range terms {
		i, ok := v.index[t]
		if !ok {
			i = len(v.terms)
			v.index[t] = i
			v.terms = append(v.terms, t)
			v.df = append(v.df, 0)
			v.seenGen = append(v.seenGen, 0)
		}
		if v.seenGen[i] != v.gen {
			v.df[i]++
			v.seenGen[i] = v.gen
		}
	}
}

// Size reports the number of distinct terms.
func (v *Vocabulary) Size() int { return len(v.terms) }

// Docs reports the number of documents folded in.
func (v *Vocabulary) Docs() int { return v.docs }

// Index returns the feature index of a term, or -1 if out of vocabulary.
func (v *Vocabulary) Index(term string) int {
	if i, ok := v.index[term]; ok {
		return i
	}
	return -1
}

// Term returns the term at feature index i.
func (v *Vocabulary) Term(i int) string { return v.terms[i] }

// IDF returns the smoothed inverse document frequency of feature i:
// log((1+N)/(1+df)) + 1, which stays positive for terms present in
// every document and is defined for unseen-in-training terms.
func (v *Vocabulary) IDF(i int) float64 {
	return math.Log(float64(1+v.docs)/float64(1+v.df[i])) + 1
}

// IDFVector returns the full IDF vector of a fitted vocabulary,
// computed once and memoized: the per-term math.Log otherwise paid on
// every vectorization of every request is paid once per vocabulary.
// The returned slice is shared — callers must treat it as read-only.
// Folding more documents in invalidates the cache.
func (v *Vocabulary) IDFVector() []float64 {
	v.idfMu.Lock()
	defer v.idfMu.Unlock()
	if v.idfCache != nil && v.idfDocs == v.docs && len(v.idfCache) == len(v.df) {
		return v.idfCache
	}
	idf := make([]float64, len(v.df))
	for i := range idf {
		idf[i] = v.IDF(i)
	}
	v.idfCache, v.idfDocs = idf, v.docs
	return idf
}

// vocabularyState is the JSON wire form of a Vocabulary.
type vocabularyState struct {
	Terms []string `json:"terms"`
	DF    []int    `json:"df"`
	Docs  int      `json:"docs"`
}

// MarshalJSON serializes the vocabulary (terms in index order, document
// frequencies and the corpus size).
func (v *Vocabulary) MarshalJSON() ([]byte, error) {
	return json.Marshal(vocabularyState{Terms: v.terms, DF: v.df, Docs: v.docs})
}

// UnmarshalJSON restores a vocabulary persisted with MarshalJSON.
func (v *Vocabulary) UnmarshalJSON(data []byte) error {
	var s vocabularyState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("vectorize: decode vocabulary: %w", err)
	}
	if len(s.Terms) != len(s.DF) {
		return fmt.Errorf("vectorize: vocabulary has %d terms but %d frequencies", len(s.Terms), len(s.DF))
	}
	v.terms = s.Terms
	v.df = s.DF
	v.docs = s.Docs
	// Fresh generation state so a restored vocabulary can keep folding
	// in documents.
	v.seenGen = make([]int, len(s.Terms))
	v.gen = 0
	v.idfMu.Lock()
	v.idfCache, v.idfDocs = nil, 0
	v.idfMu.Unlock()
	v.index = make(map[string]int, len(s.Terms))
	for i, t := range s.Terms {
		if _, dup := v.index[t]; dup {
			return fmt.Errorf("vectorize: duplicate term %q in vocabulary state", t)
		}
		v.index[t] = i
	}
	return nil
}

// TopTermsByDF returns up to k terms with the highest document
// frequency, in decreasing order (ties broken alphabetically) — used
// for corpus inspection and the paper-style most-frequent-term analysis.
func (v *Vocabulary) TopTermsByDF(k int) []string {
	idx := make([]int, len(v.terms))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if v.df[idx[a]] != v.df[idx[b]] {
			return v.df[idx[a]] > v.df[idx[b]]
		}
		return v.terms[idx[a]] < v.terms[idx[b]]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = v.terms[idx[i]]
	}
	return out
}

// Corpus pairs a vocabulary with the documents used to build it and
// offers one-call dataset construction.
type Corpus struct {
	Vocab *Vocabulary
	Docs  [][]string
	Names []string
	Y     []int
}

// NewCorpus builds a corpus (and vocabulary) from parallel slices of
// tokenized documents, labels and names.
func NewCorpus(docs [][]string, y []int, names []string) *Corpus {
	return &Corpus{Vocab: BuildVocabulary(docs), Docs: docs, Names: names, Y: y}
}

// Weighting selects the vectorization applied by Dataset.
type Weighting int

const (
	// WeightTFIDF produces L2-normalized TF-IDF vectors.
	WeightTFIDF Weighting = iota
	// WeightCounts produces raw term-count vectors.
	WeightCounts
)

// datasetGrain is the number of documents one worker vectorizes per
// dispatch in Corpus.Dataset: single-document vectorization is a few
// microseconds, so chunks keep the fan-out overhead amortized and each
// worker's Vectorizer scratch hot.
const datasetGrain = 32

// Dataset vectorizes all corpus documents into an ml.Dataset. Documents
// are vectorized concurrently in chunks, one Vectorizer (scratch
// buffers) per chunk, and appended to the dataset serially in document
// order — each document's vector depends only on the shared read-only
// vocabulary, so the result is bit-identical to the sequential
// one-Vectorizer loop at any worker count.
func (c *Corpus) Dataset(w Weighting) *ml.Dataset {
	vecs := make([]ml.Vector, len(c.Docs))
	parallel.ForGrain(len(c.Docs), 0, datasetGrain, func(lo, hi int) {
		z := NewVectorizer(c.Vocab)
		for i := lo; i < hi; i++ {
			vecs[i] = z.Vector(c.Docs[i], w)
		}
	})
	ds := &ml.Dataset{Dim: c.Vocab.Size()}
	for i, v := range vecs {
		name := ""
		if i < len(c.Names) {
			name = c.Names[i]
		}
		ds.Add(v, c.Y[i], name)
	}
	return ds
}
