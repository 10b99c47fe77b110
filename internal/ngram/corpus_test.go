package ngram

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// checkCorpusMatchesGraphs interns legitDocs, illegitDocs and doc as
// one corpus, merges each class's documents in order into a dense class
// graph, and requires every document's features and text rank to be
// bit-equal to the naive reference: the standalone similarities of the
// map-based document graph against the map-based merges of each
// class's document graphs.
func checkCorpusMatchesGraphs(t *testing.T, legitDocs, illegitDocs []string, doc string) {
	t.Helper()
	texts := append(append(append([]string(nil), legitDocs...), illegitDocs...), doc)
	c := NewCorpus(texts, 2, 1)
	legit, illegit := c.NewClass(), c.NewClass()
	var legitGraphs, illegitGraphs []*refGraph
	for i, text := range texts[:len(legitDocs)+len(illegitDocs)] {
		if i < len(legitDocs) {
			legit.Merge(i)
			legitGraphs = append(legitGraphs, fromDocument(text))
		} else {
			illegit.Merge(i)
			illegitGraphs = append(illegitGraphs, fromDocument(text))
		}
	}
	wantL, wantI := mergeAll(legitGraphs), mergeAll(illegitGraphs)
	if legit.Size() != wantL.size() || illegit.Size() != wantI.size() {
		t.Fatalf("class sizes %d/%d, reference %d/%d", legit.Size(), illegit.Size(), wantL.size(), wantI.size())
	}
	for i, text := range texts {
		g := fromDocument(text)
		if c.DocSize(i) != g.size() {
			t.Fatalf("doc %d size %d, reference %d", i, c.DocSize(i), g.size())
		}
		want := refFeatures(g, wantL, wantI)
		got := c.Features(i, legit, illegit)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("doc %d %s = %v, reference %v", i, FeatureNames[k], got[k], want[k])
			}
		}
		if got, want := c.TextRank(i, legit, illegit), refTextRank(g, wantL, wantI); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("doc %d TextRank = %v, reference %v", i, got, want)
		}
	}
}

// Property: the interned corpus's class graphs, features and text
// ranks are bit-for-bit those of the naive reference, including empty
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
// document's ids and weights follow the reference graph's insertion
// order, so builders reused across documents carry nothing over, and
// the corpus is the same at every worker count and grain. The dense
// features stay bit-equal to the reference across chunk boundaries.
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
			g := fromDocument(text)
			if len(c.docs[i].ids) != len(g.order) {
				t.Fatalf("trial %d doc %d: %d ids, graph has %d edges", trial, i, len(c.docs[i].ids), len(g.order))
			}
			for k, e := range g.order {
				id := c.docs[i].ids[k]
				if w := c.docs[i].w[k]; float64(w) != g.w[e] {
					t.Fatalf("trial %d doc %d: edge %d weighs %v, reference %v", trial, i, k, w, g.w[e])
				}
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

// checkBuild builds text with b and requires the reference graph's
// edges and weights, in its insertion order.
func checkBuild(t *testing.T, b *docBuilder, text string) {
	t.Helper()
	want := fromDocument(text)
	b.build(text)
	keys := b.keys
	if len(keys) != len(want.order) || len(b.w) != len(keys) {
		t.Fatalf("%q: %d keys and %d weights, reference has %d edges", text, len(keys), len(b.w), len(want.order))
	}
	for k, e := range want.order {
		if keys[k] != e || float64(b.w[k]) != want.w[e] {
			t.Fatalf("%q: edge %d is %v weighing %v, reference %v weighing %v", text, k, keys[k], b.w[k], e, want.w[e])
		}
	}
}

// Property: one builder, reused across documents of every size, emits
// each document's edges and weights exactly as the reference graph
// orders them.
func TestBuilderMatchesFromTextProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	b := builderPool.New().(*docBuilder)
	for trial := 0; trial < 100; trial++ {
		text := randomText(rng, rng.Intn(30))
		if trial%10 == 0 {
			// Random letters: enough distinct edges to grow the
			// builder's table past its first size.
			r := make([]rune, 300+rng.Intn(300))
			for k := range r {
				r[k] = []rune("abcdefghijklmnopqrstuvwxyzωμέγα ")[rng.Intn(32)]
			}
			text = string(r)
		}
		checkBuild(t, b, text)
	}
}

// The builder must not leak state between documents: a large document
// followed by a tiny one, with and without repeated edges, must
// produce the tiny one's graph.
func TestBuilderResetsBetweenDocs(t *testing.T) {
	b := builderPool.New().(*docBuilder)
	b.build("a long pharmacy document with many characters in it")
	checkBuild(t, b, "abcdefgh")
	checkBuild(t, b, "abcdeabcde")
	checkBuild(t, b, "abc")
}

// A document's memory follows its distinct edges, not its
// co-occurrences: crawled text is written by the sites being judged,
// and a long page of one repeated phrase has a handful of edges. The
// builder's rune and gram buffers take 16 bytes per rune (the rune
// buffer grows by doubling); reserving a key for every co-occurrence
// would add 64 more.
func TestCorpusRepetitiveTextMemory(t *testing.T) {
	const runes = 1 << 17
	text := strings.Repeat("ab", runes/2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCorpus([]string{text}, 1, 0)
	runtime.ReadMemStats(&after)
	if c.DocSize(0) > 2*DefaultWindow {
		t.Fatalf("%d distinct edges in a text of two alternating letters", c.DocSize(0))
	}
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(32*runes+256<<10); got > budget {
		t.Errorf("NewCorpus of a %d-rune repetitive text allocated %d bytes, want <= %d", runes, got, budget)
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
// text is split at newlines into that class's documents; the features
// and text rank of every document, the third argument included, must
// be bit-equal to the naive reference's (checkCorpusMatchesGraphs).
func FuzzCorpusFeatures(f *testing.F) {
	f.Fuzz(func(t *testing.T, legitText, illegitText, doc string) {
		checkCorpusMatchesGraphs(t, strings.Split(legitText, "\n"), strings.Split(illegitText, "\n"), doc)
	})
}
