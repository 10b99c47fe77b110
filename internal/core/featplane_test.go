package core

import (
	"math/rand"
	"reflect"
	"testing"

	"pharmaverify/internal/featcache"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/ngram"
)

// NGGFeatureDataset is the sequential reference for the plane's
// feature pass: the 8-feature similarity dataset of Figure 2 for the
// given document texts, with class graphs merged from the instances
// listed in classIdx, over a fresh corpus built on one worker. The
// Corpus itself is pinned against the naive n-gram graph in package
// ngram; this reference pins what the plane adds: class-index routing,
// merge order and the worker fan-out.
func NGGFeatureDataset(docs []string, labels []int, names []string, classIdx []int) *ml.Dataset {
	c, legit, illegit := nggClassGraphs(docs, labels, classIdx)
	ds := &ml.Dataset{Dim: 8}
	for i := range docs {
		name := ""
		if names != nil {
			name = names[i]
		}
		ds.Add(ml.NewVector(c.Features(i, legit, illegit)), labels[i], name)
	}
	return ds
}

// nggClassGraphs builds a fresh single-worker corpus of docs and its
// per-class merged graphs from the instances listed in classIdx, in
// classIdx order.
func nggClassGraphs(docs []string, labels []int, classIdx []int) (c *ngram.Corpus, legit, illegit *ngram.ClassGraph) {
	c = ngram.NewCorpus(docs, 1, 0)
	legit, illegit = c.NewClass(), c.NewClass()
	for _, i := range classIdx {
		if labels[i] == ml.Legitimate {
			legit.Merge(i)
		} else {
			illegit.Merge(i)
		}
	}
	return c, legit, illegit
}

// TestPlaneFeatureDatasetMatchesNaive is the bit-identity property of
// the shared training plane: for randomized class-index halves and
// worker counts, the plane's feature matrix must equal the standalone
// NGGFeatureDataset exactly, vector by vector.
func TestPlaneFeatureDatasetMatchesNaive(t *testing.T) {
	snap := testSnapshot(t, 1)
	docs := nggDocuments(snap, 100, 9)
	labels := snap.Labels()
	names := snap.Domains()

	plane := trainingPlaneFor(snap, 100, 9)
	plane.acquire()
	defer plane.release()

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		perm := rng.Perm(len(docs))
		classIdx := perm[:len(docs)/2]
		want := NGGFeatureDataset(docs, labels, names, classIdx)
		for _, workers := range []int{1, 2, 4} {
			got := plane.featureDataset(classIdx, workers, 1+trial*7)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers %d: plane dataset differs from NGGFeatureDataset", trial, workers)
			}
		}
	}
}

// TestPlaneTextRanksMatchNaive pins the ranking path the same way,
// including the /8 scale of the plane's text ranks.
func TestPlaneTextRanksMatchNaive(t *testing.T) {
	snap := testSnapshot(t, 1)
	docs := nggDocuments(snap, 100, 9)
	labels := snap.Labels()

	plane := trainingPlaneFor(snap, 100, 9)
	plane.acquire()
	defer plane.release()

	rng := rand.New(rand.NewSource(5))
	perm := rng.Perm(len(docs))
	half := perm[:len(docs)/2]
	c, legit, illegit := nggClassGraphs(docs, labels, half)
	want := make([]float64, len(docs))
	for i := range docs {
		want[i] = c.TextRank(i, legit, illegit) / 8
	}
	for _, workers := range []int{1, 3} {
		got := plane.textRanks(half, workers, 4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: plane text ranks differ from the sequential reference", workers)
		}
	}
}

// TestPlaneGenerationStamps pins the lifetime contract: nested acquires
// share one build epoch (no silent rebuild mid-run), and a full
// release/re-acquire cycle starts a new stamped epoch.
func TestPlaneGenerationStamps(t *testing.T) {
	snap := testSnapshot(t, 1)
	plane := trainingPlaneFor(snap, 100, 42)

	g1 := plane.acquire()
	g2 := plane.acquire()
	if g1 != g2 {
		t.Fatalf("nested acquire rebuilt the plane: gen %d then %d", g1, g2)
	}
	plane.release()
	if g3 := plane.acquire(); g3 != g1 {
		t.Fatalf("graphs dropped while still held: gen %d then %d", g1, g3)
	}
	plane.release()
	plane.release()

	g4 := plane.acquire()
	defer plane.release()
	if g4 == g1 {
		t.Fatal("full release did not end the build epoch")
	}
}

// TestPlaneScopedCacheStats checks that training-plane traffic and the
// TF-IDF artifacts land on the training scope counters, with the scope
// always present in the exported map.
func TestPlaneScopedCacheStats(t *testing.T) {
	snap := testSnapshot(t, 1)
	ResetFeatureCache()

	stats := FeatureCacheScopeStats()
	if st, ok := stats[featcache.ScopeTraining]; !ok || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("training scope not zeroed after reset: %+v (present=%v)", st, ok)
	}

	trainingPlaneFor(snap, 100, 7)                                       // miss
	trainingPlaneFor(snap, 100, 7)                                       // hit
	TFIDFDataset(snap, TextConfig{Classifier: SVM, Terms: 100, Seed: 7}) // 2 misses (corpus + dataset)

	stats = FeatureCacheScopeStats()
	if st := stats[featcache.ScopeTraining]; st.Misses != 3 || st.Hits != 1 {
		t.Errorf("training scope = %+v, want 1 hit / 3 misses", st)
	}
	if len(stats) != 1 {
		t.Errorf("scopes = %v, want the training scope alone", stats)
	}
}

// TestPlaneFeaturePassAllocs pins the per-document cost of the plane's
// feature pass: with the corpus interned and the class graphs merged,
// one document costs exactly its row — no graph construction and no
// map traffic.
func TestPlaneFeaturePassAllocs(t *testing.T) {
	snap := testSnapshot(t, 1)
	plane := trainingPlaneFor(snap, 100, 3)
	plane.acquire()
	defer plane.release()
	legit, illegit := plane.classGraphs([]int{0, 1, 2, 3, 4, 5, 6, 7})

	var row []float64
	allocs := testing.AllocsPerRun(50, func() {
		row = plane.corpus.Features(9, legit, illegit)
	})
	if row == nil {
		t.Fatal("no features produced")
	}
	// One allocation: the 8-float row itself.
	if allocs > 1 {
		t.Errorf("plane feature row costs %.1f allocs, want <= 1", allocs)
	}
}
