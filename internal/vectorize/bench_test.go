package vectorize

import (
	"fmt"
	"testing"
)

// benchDocs builds a corpus with a realistic shape: many documents over
// a shared vocabulary, with repeated terms inside each document.
func benchDocs(nDocs, nTerms, docLen int) [][]string {
	vocab := make([]string, nTerms)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%04d", i)
	}
	docs := make([][]string, nDocs)
	for d := range docs {
		doc := make([]string, docLen)
		for j := range doc {
			// Deterministic skewed mix: low indices recur often, which
			// exercises the seen-before check on every repeat.
			doc[j] = vocab[(d*7+j*j)%nTerms]
		}
		docs[d] = doc
	}
	return docs
}

// BenchmarkAddDocument measures vocabulary construction. The
// generation-stamped seen slice removes the per-document map the old
// implementation allocated (one map + its buckets per call).
func BenchmarkAddDocument(b *testing.B) {
	docs := benchDocs(64, 2000, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := &Vocabulary{index: make(map[string]int)}
		for _, doc := range docs {
			v.AddDocument(doc)
		}
	}
}

// BenchmarkTFIDF measures per-document vectorization against a fixed
// vocabulary through Vectorizer.TFIDF, the path core.Verifier and
// Corpus.Dataset take.
func BenchmarkTFIDF(b *testing.B) {
	docs := benchDocs(64, 2000, 400)
	z := NewVectorizer(BuildVocabulary(docs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gateSink = z.TFIDF(docs[i%len(docs)])
	}
}
