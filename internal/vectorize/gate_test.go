package vectorize

import (
	"math/rand"
	"testing"

	"pharmaverify/internal/kernelgate"
	"pharmaverify/internal/ml"
)

// tfidfGate holds the tfidf-sparse bars: the scratch-buffer
// Vectorizer.TFIDF against the map-based Vocabulary.TFIDF reference,
// as on the daemon's request path.
var tfidfGate = kernelgate.Bars{Speedup: 1.99, AllocRatio: 2.0, AllocsOp: 5}

// tfidfGateWorkload is the gate's synthetic corpus: a vocabulary built
// from 300 training documents and 64 term lists to vectorize, all drawn
// from one lexicon of random words.
func tfidfGateWorkload() (vocab *Vocabulary, termDocs [][]string) {
	rng := rand.New(rand.NewSource(424242))
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
	return BuildVocabulary(train), termDocs
}

var gateSink ml.Vector

// tfidfGatePaths returns the gate's two timed calls, each vectorizing
// the next workload document, after failing tb unless the Vectorizer
// reproduces the reference on every document.
func tfidfGatePaths(tb testing.TB) (naive, kernel func()) {
	tb.Helper()
	vocab, termDocs := tfidfGateWorkload()
	z := NewVectorizer(vocab)
	for i, doc := range termDocs {
		want, got := vocab.TFIDF(doc), z.TFIDF(doc)
		if !vectorsEqual(want.Val, got.Val, want.Ind, got.Ind) {
			tb.Fatalf("doc %d: Vectorizer.TFIDF differs from the reference", i)
		}
	}
	var i, j int
	naive = func() { gateSink = vocab.TFIDF(termDocs[i%len(termDocs)]); i++ }
	kernel = func() { gateSink = z.TFIDF(termDocs[j%len(termDocs)]); j++ }
	return naive, kernel
}

// TestKernelGate checks the tfidf-sparse gate's deterministic half:
// identical output and the allocation-ratio floor on the gate workload.
func TestKernelGate(t *testing.T) {
	naive, kernel := tfidfGatePaths(t)
	kernelgate.CheckAllocRatio(t, tfidfGate, 64, naive, kernel)
}

// BenchmarkKernelGate times the tfidf-sparse gate against all its bars
// (see package kernelgate).
func BenchmarkKernelGate(b *testing.B) {
	naive, kernel := tfidfGatePaths(b)
	kernelgate.Run(b, tfidfGate, naive, kernel)
}
