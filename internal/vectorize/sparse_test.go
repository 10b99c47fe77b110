package vectorize

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomDocs builds random documents over a shared skewed vocabulary,
// with some out-of-vocabulary terms mixed in.
func randomDocs(rng *rand.Rand, nDocs, nTerms int) [][]string {
	vocab := make([]string, nTerms)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%04d", i)
	}
	docs := make([][]string, nDocs)
	for d := range docs {
		doc := make([]string, rng.Intn(120))
		for j := range doc {
			if rng.Intn(10) == 0 {
				doc[j] = fmt.Sprintf("oov%d", rng.Intn(50))
			} else {
				// Zipf-ish skew: low indices recur often.
				doc[j] = vocab[rng.Intn(1+rng.Intn(nTerms))]
			}
		}
		docs[d] = doc
	}
	return docs
}

func vectorsEqual(a, b []float64, ai, bi []int32) bool {
	if len(ai) != len(bi) || len(a) != len(b) {
		return false
	}
	for k := range ai {
		if ai[k] != bi[k] || a[k] != b[k] {
			return false
		}
	}
	return true
}

// Property: the scratch-buffer Vectorizer matches Vocabulary.Counts and
// Vocabulary.TFIDF bit for bit across many random documents, reusing
// one Vectorizer throughout (so stale-scratch bugs would surface).
func TestVectorizerMatchesVocabularyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	docs := randomDocs(rng, 200, 500)
	v := BuildVocabulary(docs[:100]) // half the docs stay partially OOV
	z := NewVectorizer(v)
	for i, doc := range docs {
		wantC, gotC := v.Counts(doc), z.Counts(doc)
		if !vectorsEqual(wantC.Val, gotC.Val, wantC.Ind, gotC.Ind) {
			t.Fatalf("doc %d: Counts mismatch:\n got %v %v\nwant %v %v", i, gotC.Ind, gotC.Val, wantC.Ind, wantC.Val)
		}
		wantT, gotT := v.TFIDF(doc), z.TFIDF(doc)
		if !vectorsEqual(wantT.Val, gotT.Val, wantT.Ind, gotT.Ind) {
			t.Fatalf("doc %d: TFIDF mismatch:\n got %v %v\nwant %v %v", i, gotT.Ind, gotT.Val, wantT.Ind, wantT.Val)
		}
	}
}

// Property: the bitmap gather emits ascending ids at the word
// boundaries too. Vocabularies of 63, 64 and 65 terms fill one short
// of, exactly, and one past the first 64-bit bitmap word; documents hit
// the first and last word, repeat ids, are empty or wholly out of
// vocabulary, and the vocabulary grows between calls.
// Each call must match Vocabulary.Counts/TFIDF and leave the bitmap
// zero.
func TestVectorizerGatherOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{63, 64, 65, 3000} {
		terms := make([]string, n+200)
		for i := range terms {
			terms[i] = fmt.Sprintf("t%d", i)
		}
		v := BuildVocabulary([][]string{terms[:n]})
		z := NewVectorizer(v)
		check := func(doc []string) {
			t.Helper()
			wantC, gotC := v.Counts(doc), z.Counts(doc)
			if !vectorsEqual(wantC.Val, gotC.Val, wantC.Ind, gotC.Ind) {
				t.Fatalf("vocab %d: Counts(%v) = %v %v, want %v %v", n, doc, gotC.Ind, gotC.Val, wantC.Ind, wantC.Val)
			}
			wantT, gotT := v.TFIDF(doc), z.TFIDF(doc)
			if !vectorsEqual(wantT.Val, gotT.Val, wantT.Ind, gotT.Ind) {
				t.Fatalf("vocab %d: TFIDF(%v) = %v %v, want %v %v", n, doc, gotT.Ind, gotT.Val, wantT.Ind, wantT.Val)
			}
			for w, word := range z.seen {
				if word != 0 {
					t.Fatalf("vocab %d: bitmap word %d = %#x after a call, want 0", n, w, word)
				}
			}
		}
		for round := 0; round < 50; round++ {
			size := v.Size()
			last := terms[size-1]
			check(nil)
			check([]string{"oov", "oov"})
			check([]string{last, terms[0], last, terms[0]})
			check([]string{terms[min(63, size-1)], terms[min(64, size-1)], terms[size-1-rng.Intn(size)]})
			doc := make([]string, rng.Intn(80))
			for j := range doc {
				switch rng.Intn(4) {
				case 0:
					doc[j] = terms[rng.Intn(min(64, size))] // first word
				case 1:
					doc[j] = terms[size-1-rng.Intn(min(64, size))] // last word
				case 2:
					doc[j] = terms[rng.Intn(size)]
				default:
					doc[j] = terms[size+rng.Intn(len(terms)-size)] // not yet in vocabulary
				}
			}
			check(doc)
			if round%10 == 9 {
				// Grow by a few terms, crossing into a new bitmap word
				// for the small vocabularies.
				v.AddDocument(terms[size : size+1+rng.Intn(5)])
			}
		}
	}
}

// The IDF vector is memoized per fitted vocabulary and invalidated when
// more documents are folded in.
func TestIDFVectorMemoized(t *testing.T) {
	docs := [][]string{{"a", "b"}, {"b", "c"}}
	v := BuildVocabulary(docs)
	idf1 := v.IDFVector()
	idf2 := v.IDFVector()
	if &idf1[0] != &idf2[0] {
		t.Error("IDFVector not memoized: distinct slices for an unchanged vocabulary")
	}
	for i := range idf1 {
		if idf1[i] != v.IDF(i) {
			t.Fatalf("IDFVector[%d] = %v, want IDF = %v", i, idf1[i], v.IDF(i))
		}
	}
	v.AddDocument([]string{"c", "d"})
	idf3 := v.IDFVector()
	if len(idf3) != v.Size() {
		t.Fatalf("stale IDF vector: %d entries for %d terms", len(idf3), v.Size())
	}
	for i := range idf3 {
		if idf3[i] != v.IDF(i) {
			t.Fatalf("post-growth IDFVector[%d] = %v, want %v", i, idf3[i], v.IDF(i))
		}
	}
}

// A Vectorizer built before vocabulary growth keeps working after it.
func TestVectorizerSurvivesVocabularyGrowth(t *testing.T) {
	v := BuildVocabulary([][]string{{"a", "b"}})
	z := NewVectorizer(v)
	z.TFIDF([]string{"a"})
	v.AddDocument([]string{"c", "d", "e"})
	doc := []string{"a", "c", "e", "e"}
	want, got := v.TFIDF(doc), z.TFIDF(doc)
	if !vectorsEqual(want.Val, got.Val, want.Ind, got.Ind) {
		t.Fatalf("post-growth mismatch: got %v %v, want %v %v", got.Ind, got.Val, want.Ind, want.Val)
	}
}

// Allocation regression: steady-state sparse vectorization allocates
// only the two result slices, independent of vocabulary size.
func TestVectorizerAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	docs := randomDocs(rng, 64, 2000)
	v := BuildVocabulary(docs)
	z := NewVectorizer(v)
	doc := docs[0]
	z.TFIDF(doc) // warm scratch
	if allocs := testing.AllocsPerRun(100, func() {
		z.TFIDF(doc)
	}); allocs > 2 {
		t.Errorf("Vectorizer.TFIDF allocates %.1f times per run, want <= 2 (Ind+Val)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		z.Counts(doc)
	}); allocs > 2 {
		t.Errorf("Vectorizer.Counts allocates %.1f times per run, want <= 2 (Ind+Val)", allocs)
	}
}

// Corpus.Dataset (now Vectorizer-backed) must keep producing the exact
// per-document vectors of the method-per-document path.
func TestCorpusDatasetMatchesPerDocument(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	docs := randomDocs(rng, 50, 300)
	y := make([]int, len(docs))
	for i := range y {
		y[i] = i % 2
	}
	c := NewCorpus(docs, y, nil)
	for _, w := range []Weighting{WeightTFIDF, WeightCounts} {
		ds := c.Dataset(w)
		for i, doc := range docs {
			var want = c.Vocab.TFIDF(doc)
			if w == WeightCounts {
				want = c.Vocab.Counts(doc)
			}
			got := ds.X[i]
			if !vectorsEqual(want.Val, got.Val, want.Ind, got.Ind) {
				t.Fatalf("weighting %d doc %d: dataset vector differs from per-document path", w, i)
			}
		}
	}
}
