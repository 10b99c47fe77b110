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

// Property: on corpora of several chunks whose edges fall in every
// shard, the numbering is a bijection between the distinct edges and
// [0, edges) — equal edges share an id, distinct edges never do — each
// document's ids follow its graph's insertion order, and the corpus is
// the same at every worker count and grain. The dense features stay
// bit-equal to the map-based path across chunk boundaries.
func TestCorpusNumberingShardedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 6; trial++ {
		texts := make([]string, corpusChunk+1+rng.Intn(3*corpusChunk))
		for i := range texts {
			// Random bytes, so the corpus has thousands of distinct
			// edges, spread over every shard.
			b := make([]byte, rng.Intn(120))
			for k := range b {
				b[k] = byte('a' + rng.Intn(26))
			}
			texts[i] = string(b)
		}
		c := NewCorpus(texts, 2, 3)
		idOf := map[packedEdge]int32{}
		edgeOf := map[int32]packedEdge{}
		var perShard [corpusShards]int
		for i, text := range texts {
			g := FromDocument(text)
			if len(c.docs[i].ids) != len(g.order) {
				t.Fatalf("trial %d doc %d: %d ids, graph has %d edges", trial, i, len(c.docs[i].ids), len(g.order))
			}
			for k, e := range g.order {
				id := c.docs[i].ids[k]
				if id < 0 || int(id) >= c.edges {
					t.Fatalf("trial %d doc %d: id %d outside [0, %d)", trial, i, id, c.edges)
				}
				if prev, ok := idOf[e]; ok && prev != id {
					t.Fatalf("trial %d doc %d: one edge numbered %d and %d", trial, i, prev, id)
				}
				if prev, ok := edgeOf[id]; ok && prev != e {
					t.Fatalf("trial %d doc %d: id %d names two edges", trial, i, id)
				}
				if _, ok := idOf[e]; !ok {
					perShard[edgeHash(e)>>(64-shardBits)]++
				}
				idOf[e], edgeOf[id] = id, e
			}
		}
		if len(idOf) != c.edges {
			t.Fatalf("trial %d: %d distinct edges, corpus numbers %d", trial, len(idOf), c.edges)
		}
		for s, n := range perShard {
			if n == 0 {
				t.Fatalf("trial %d: shard %d holds no edge", trial, s)
			}
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for _, grain := range []int{0, 1, 5, corpusChunk + 7} {
				if other := NewCorpus(texts, workers, grain); !reflect.DeepEqual(c, other) {
					t.Fatalf("trial %d: corpus at workers=%d grain=%d differs from workers=2 grain=3", trial, workers, grain)
				}
			}
		}
		half := len(texts) / 2
		checkCorpusMatchesGraphs(t, texts[:half], texts[half:len(texts)-1], texts[len(texts)-1])
	}
}

// A shard whose local ids would overflow their bit budget panics
// instead of handing out ids that collide after the rewrite.
func TestEdgeTableOverflowPanics(t *testing.T) {
	tb := newEdgeTable()
	tb.n = shardEdgeLimit
	defer func() {
		if recover() == nil {
			t.Fatal("numbering a new edge past shardEdgeLimit did not panic")
		}
	}()
	e := packedEdge{1, 2}
	tb.number(e, edgeHash(e)<<shardBits)
}

// Allocation regression: merging a corpus document into a class graph
// and comparing a document against two class graphs allocate nothing,
// and building a corpus stays within a fixed per-document budget.
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

	if raceEnabled {
		t.Skip("pooled-builder budgets: the race detector drops sync.Pool items")
	}
	// NewCorpus on one worker, across three chunks: two slices per
	// document (ids and weights), one reused key buffer per chunk slot,
	// two slices per shard table (too few edges here for a table to
	// grow), and a few closures and key-buffer regrowths per chunk.
	texts = make([]string, 2*corpusChunk+6)
	for i := range texts {
		texts[i] = randomText(rng, 80)
	}
	chunks := (len(texts) + corpusChunk - 1) / corpusChunk
	budget := 2*len(texts) + corpusChunk + 2*corpusShards + 8*chunks + 8
	if allocs := testing.AllocsPerRun(20, func() {
		NewCorpus(texts, 1, 0)
	}); allocs > float64(budget) {
		t.Errorf("NewCorpus allocates %.1f times per run, want <= %d", allocs, budget)
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
