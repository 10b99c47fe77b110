package ngram

import (
	"math/rand"
	"testing"
)

// naiveCompare is the reference: the four standalone similarity
// functions, exactly as Compare composed them before the kernel.
func naiveCompare(doc, class *Graph) Similarity {
	return Similarity{
		CS:  ContainmentSimilarity(doc, class),
		SS:  SizeSimilarity(doc, class),
		VS:  ValueSimilarity(doc, class),
		NVS: NormalizedValueSimilarity(doc, class),
	}
}

// Property: the single-pass kernel (Compare, CompareBoth, DocFeatures,
// DocTextRank) matches the four naive similarity functions bit for bit
// on randomized documents and merged class graphs — including empty
// graphs and class graphs whose lazy scale factor is not 1.
func TestKernelMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		// Class graphs merged from a random number of documents; zero
		// merges leaves a class graph empty, exercising the empty cases.
		buildClass := func(nDocs int) *Graph {
			class := New()
			for i := 0; i < nDocs; i++ {
				class.Merge(FromDocument(randomText(rng, 1+rng.Intn(30))))
			}
			return class
		}
		legit := buildClass(rng.Intn(5))
		illegit := buildClass(rng.Intn(5))
		text := randomText(rng, rng.Intn(40))
		doc := FromDocument(text)

		wantL := naiveCompare(doc, legit)
		wantI := naiveCompare(doc, illegit)

		if got := Compare(doc, legit); got != wantL {
			t.Fatalf("trial %d: Compare(doc, legit) = %+v, naive %+v", trial, got, wantL)
		}
		if got := Compare(doc, illegit); got != wantI {
			t.Fatalf("trial %d: Compare(doc, illegit) = %+v, naive %+v", trial, got, wantI)
		}
		gotL, gotI := CompareBoth(doc, legit, illegit)
		if gotL != wantL || gotI != wantI {
			t.Fatalf("trial %d: CompareBoth = %+v/%+v, naive %+v/%+v", trial, gotL, gotI, wantL, wantI)
		}

		wantFeats := []float64{
			wantL.CS, wantL.SS, wantL.VS, wantL.NVS,
			wantI.CS, wantI.SS, wantI.VS, wantI.NVS,
		}
		gotFeats := DocFeatures(nil, text, legit, illegit)
		for k := range wantFeats {
			if gotFeats[k] != wantFeats[k] {
				t.Fatalf("trial %d: DocFeatures[%d] = %v, naive %v", trial, k, gotFeats[k], wantFeats[k])
			}
		}

		wantRank := wantL.CS + (1 - wantI.CS) +
			wantL.SS + (1 - wantI.SS) +
			wantL.VS + (1 - wantI.VS) +
			wantL.NVS + (1 - wantI.NVS)
		if got := DocTextRank(text, legit, illegit); got != wantRank {
			t.Fatalf("trial %d: DocTextRank = %v, naive %v", trial, got, wantRank)
		}
	}
}

// Property: a pooled Builder constructs graphs identical (edges,
// weights, order, similarities) to FromText across repeated reuse.
func TestBuilderMatchesFromTextProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	b := NewBuilder()
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(5)
		win := 1 + rng.Intn(5)
		text := randomText(rng, rng.Intn(30))
		want := FromText(text, n, win)
		got := b.Build(text, n, win)
		if got.Size() != want.Size() {
			t.Fatalf("trial %d: size %d, want %d", trial, got.Size(), want.Size())
		}
		if len(got.order) != len(want.order) {
			t.Fatalf("trial %d: order length %d, want %d", trial, len(got.order), len(want.order))
		}
		for i, e := range want.order {
			if got.order[i] != e {
				t.Fatalf("trial %d: order[%d] differs", trial, i)
			}
			if got.w[e] != want.w[e] {
				t.Fatalf("trial %d: weight of edge %d: %v, want %v", trial, i, got.w[e], want.w[e])
			}
		}
	}
}

// Allocation regression: the kernel Compare path over prebuilt graphs
// performs no heap allocation, and the pooled document-feature path
// stays within the slack left for sync.Pool refills. The race detector
// drops pooled items at random, so the pooled budgets are checked only
// without it.
func TestKernelAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	doc := FromDocument(randomText(rng, 120))
	legit := MergeAll([]*Graph{FromDocument(randomText(rng, 80)), FromDocument(randomText(rng, 80))})
	illegit := MergeAll([]*Graph{FromDocument(randomText(rng, 80)), FromDocument(randomText(rng, 80))})

	if allocs := testing.AllocsPerRun(100, func() {
		CompareBoth(doc, legit, illegit)
	}); allocs != 0 {
		t.Errorf("CompareBoth allocates %.1f times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		Compare(doc, legit)
	}); allocs != 0 {
		t.Errorf("Compare allocates %.1f times per run, want 0", allocs)
	}

	if raceEnabled {
		t.Skip("pooled-builder budgets: the race detector drops sync.Pool items")
	}
	text := randomText(rng, 120)
	buf := make([]float64, 0, 8)
	// Warm the pool so the steady state is measured.
	DocFeatures(buf, text, legit, illegit)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = DocFeatures(buf, text, legit, illegit)
	}); allocs > 1 {
		t.Errorf("DocFeatures allocates %.1f times per run, want <= 1 (pool refill slack)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		DocTextRank(text, legit, illegit)
	}); allocs > 1 {
		t.Errorf("DocTextRank allocates %.1f times per run, want <= 1 (pool refill slack)", allocs)
	}
}

// The builder's graph must not leak state between documents: a large
// document followed by a tiny one must produce the tiny one's graph.
func TestBuilderResetsBetweenDocs(t *testing.T) {
	b := NewBuilder()
	b.Doc("a long pharmacy document with many characters in it")
	g := b.Doc("abcdefgh")
	want := FromDocument("abcdefgh")
	if g.Size() != want.Size() {
		t.Fatalf("stale state: size %d, want %d", g.Size(), want.Size())
	}
	s := Compare(g, want)
	if s.CS != 1 || s.SS != 1 || s.VS != 1 || s.NVS != 1 {
		t.Fatalf("rebuilt graph not identical to fresh one: %+v", s)
	}
}
