package ngram

import (
	"math/rand"
	"strings"
	"testing"
)

// randomText builds a pharmacy-ish random document.
func randomText(rng *rand.Rand, words int) string {
	pool := []string{"viagra", "health", "pharmacy", "cheap", "order",
		"prescription", "pills", "online", "store", "discount", "fda"}
	var b strings.Builder
	for i := 0; i < words; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(pool[rng.Intn(len(pool))])
	}
	return b.String()
}

// Property: all four similarities stay within [0,1] for arbitrary
// document pairs, and self-similarity is exactly 1 for non-empty graphs.
func TestSimilaritiesBoundedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		c := NewCorpus([]string{randomText(rng, 2+rng.Intn(60)), randomText(rng, 2+rng.Intn(60))}, 1, 0)
		s := similarity(c, 0, classOf(c, 1))
		for name, v := range map[string]float64{"CS": s.CS, "SS": s.SS, "VS": s.VS, "NVS": s.NVS} {
			if v < 0 || v > 1+1e-9 {
				t.Fatalf("%s = %v out of range", name, v)
			}
		}
		if self := similarity(c, 0, classOf(c, 0)); c.DocSize(0) > 0 && self != (Similarity{1, 1, 1, 1}) {
			t.Fatalf("self-similarity %+v, want all 1", self)
		}
	}
}

// Property: merging k copies of the same document leaves the weights of
// that document unchanged (running average of identical values).
func TestMergeIdempotentOnIdenticalDocsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		c := NewCorpus([]string{randomText(rng, 5+rng.Intn(40))}, 1, 0)
		if c.DocSize(0) == 0 {
			continue
		}
		class := c.NewClass()
		k := 2 + rng.Intn(5)
		for i := 0; i < k; i++ {
			class.Merge(0)
		}
		if class.Size() != c.DocSize(0) {
			t.Fatalf("size changed: %d vs %d", class.Size(), c.DocSize(0))
		}
		d := c.docs[0]
		for i, id := range d.ids {
			got, want := class.weight(id), float64(d.w[i])
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("weight drifted: %v vs %v", got, want)
			}
		}
	}
}

// Property: the class graph built from a set of documents contains
// every edge of every document (no decay can reach zero in finitely
// many merges).
func TestMergeAllCoversAllEdgesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		texts := make([]string, 2+rng.Intn(6))
		for i := range texts {
			texts[i] = randomText(rng, 5+rng.Intn(30))
		}
		c := NewCorpus(texts, 1, 0)
		class := c.NewClass()
		for i := range texts {
			class.Merge(i)
		}
		for di, d := range c.docs {
			for _, id := range d.ids {
				if class.w[id] == 0 {
					t.Fatalf("doc %d edge %d missing from class graph", di, id)
				}
			}
		}
	}
}

// Property: a document is more similar (VS) to a class graph built
// from documents drawn from the same vocabulary than to one from a
// disjoint vocabulary.
func TestClassDiscriminationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	greek := func(words int) string {
		pool := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
		var b strings.Builder
		for i := 0; i < words; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(pool[rng.Intn(len(pool))])
		}
		return b.String()
	}
	for trial := 0; trial < 20; trial++ {
		// Documents 0–4 share the probe's vocabulary, 5–9 do not, and
		// document 10 is the probe.
		var texts []string
		for i := 0; i < 5; i++ {
			texts = append(texts, randomText(rng, 40))
		}
		for i := 0; i < 5; i++ {
			texts = append(texts, greek(40))
		}
		texts = append(texts, randomText(rng, 40))
		c := NewCorpus(texts, 1, 0)
		same, other := c.CompareBoth(10, classOf(c, 0, 1, 2, 3, 4), classOf(c, 5, 6, 7, 8, 9))
		if same.VS <= other.VS {
			t.Fatalf("probe closer to disjoint-vocabulary class")
		}
	}
}

// Property: total edge weight of fromText equals the number of
// (position, predecessor) pairs: Σ_{i=1..n-1} min(i, win).
func TestFromTextTotalWeightProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		win := 1 + rng.Intn(6)
		text := randomText(rng, 1+rng.Intn(20))
		g := fromText(text, n, win)
		runes := []rune(text)
		grams := len(runes) - n + 1
		if grams < 1 {
			if g.size() != 0 {
				t.Fatal("short text must give empty graph")
			}
			continue
		}
		want := 0.0
		for i := 1; i < grams; i++ {
			want += float64(min(i, win))
		}
		var got float64
		for _, e := range g.order {
			got += g.w[e]
		}
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("total weight %v, want %v (n=%d win=%d)", got, want, n, win)
		}
	}
}
