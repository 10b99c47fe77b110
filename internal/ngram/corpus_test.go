package ngram

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// checkCorpusMatchesGraphs interns legitDocs, illegitDocs and doc as
// one corpus, merges each class's documents in order into a dense class
// graph, and requires every document's features and text rank to be
// bit-equal to the map-based path: Features and TextRank of
// FromDocument against MergeAll of each class's document graphs.
func checkCorpusMatchesGraphs(t *testing.T, legitDocs, illegitDocs []string, doc string) {
	t.Helper()
	texts := append(append(append([]string(nil), legitDocs...), illegitDocs...), doc)
	c := NewCorpus(texts, 2, 1)
	legit, illegit := c.NewClass(), c.NewClass()
	var legitGraphs, illegitGraphs []*Graph
	for i, text := range texts[:len(legitDocs)+len(illegitDocs)] {
		if i < len(legitDocs) {
			legit.Merge(i)
			legitGraphs = append(legitGraphs, FromDocument(text))
		} else {
			illegit.Merge(i)
			illegitGraphs = append(illegitGraphs, FromDocument(text))
		}
	}
	wantL, wantI := MergeAll(legitGraphs), MergeAll(illegitGraphs)
	if legit.size != wantL.Size() || illegit.size != wantI.Size() {
		t.Fatalf("class sizes %d/%d, map-based %d/%d", legit.size, illegit.size, wantL.Size(), wantI.Size())
	}
	for i, text := range texts {
		g := FromDocument(text)
		want := Features(g, wantL, wantI)
		got := c.Features(i, legit, illegit)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("doc %d %s = %v, map-based %v", i, FeatureNames[k], got[k], want[k])
			}
		}
		if got, want := c.TextRank(i, legit, illegit), TextRank(g, wantL, wantI); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("doc %d TextRank = %v, map-based %v", i, got, want)
		}
	}
}

// Property: the interned corpus's class graphs, features and text
// ranks are bit-for-bit those of the map-based graphs, including empty
// classes, empty documents and class graphs whose lazy scale is not 1;
// and the corpus does not depend on the build's worker count.
func TestCorpusMatchesGraphsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	docs := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = randomText(rng, rng.Intn(40))
		}
		return out
	}
	for trial := 0; trial < 100; trial++ {
		legit, illegit := docs(rng.Intn(6)), docs(rng.Intn(6))
		doc := randomText(rng, rng.Intn(40))
		checkCorpusMatchesGraphs(t, legit, illegit, doc)

		texts := append(append(legit, illegit...), doc)
		if one, many := NewCorpus(texts, 1, 0), NewCorpus(texts, 3, 1); !reflect.DeepEqual(one, many) {
			t.Fatalf("trial %d: corpus built with 3 workers differs from 1 worker", trial)
		}
	}
}

// Allocation regression: merging a corpus document into a class graph
// and comparing a document against two class graphs allocate nothing.
func TestCorpusAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	texts := make([]string, 6)
	for i := range texts {
		texts[i] = randomText(rng, 80)
	}
	c := NewCorpus(texts, 1, 0)
	legit, illegit := c.NewClass(), c.NewClass()
	legit.Merge(0)
	illegit.Merge(1)
	if allocs := testing.AllocsPerRun(100, func() {
		legit.Merge(2)
		illegit.Merge(3)
	}); allocs != 0 {
		t.Errorf("ClassGraph.Merge allocates %.1f times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.CompareBoth(5, legit, illegit)
	}); allocs != 0 {
		t.Errorf("Corpus.CompareBoth allocates %.1f times per run, want 0", allocs)
	}
}

// FuzzCorpusFeatures feeds adversarial text — crawled pages are written
// by the sites being judged — through the interned corpus. Each class
// text is split at newlines into that class's documents; the dense
// features of every document, the third argument included, must be
// bit-equal to Features(FromDocument(text), MergeAll(legit graphs),
// MergeAll(illegit graphs)).
func FuzzCorpusFeatures(f *testing.F) {
	f.Fuzz(func(t *testing.T, legitText, illegitText, doc string) {
		checkCorpusMatchesGraphs(t, strings.Split(legitText, "\n"), strings.Split(illegitText, "\n"), doc)
	})
}
