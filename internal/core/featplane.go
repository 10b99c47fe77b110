package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pharmaverify/internal/dataset"
	"pharmaverify/internal/featcache"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/ngram"
	"pharmaverify/internal/parallel"
)

// trainingPlane is the shared feature plane of one (snapshot, terms,
// seed) training corpus: the rendered documents plus, while at least
// one training run holds it acquired, the interned n-gram-graph corpus
// of every document. All consumers of the corpus — ensemble-library
// folds, the NGG fold featurization, the ranking text ranks — read the
// same plane instead of re-rendering and re-building graphs per fold
// and per member.
//
// Lifetime and aliasing contract (DESIGN §13):
//
//   - The plane itself (documents, labels, names) is cheap and lives
//     in the content-keyed feature cache like every derived artifact.
//   - The interned corpus is the expensive part (every document's
//     edge ids and counts, 8 bytes per distinct edge of a document),
//     so it is reference-counted: acquire builds it on first use,
//     release drops it when the last holder leaves. Memory is bounded
//     by one corpus per *concurrently training* configuration, not
//     per cached one.
//   - Everything handed out is read-only and shared: the corpus is
//     only ever read (ClassGraph.Merge and CompareBoth read it), class
//     graphs and feature rows are freshly allocated per call. Callers
//     must not mutate a returned dataset vector.
//   - Each corpus build epoch gets a generation stamp from a global
//     counter. A consumer that acquires once sees one generation for
//     its whole run; tests use the stamp to pin that sharing happened
//     (no silent rebuild mid-run).
//
// A rebuilt corpus is bit-identical (NewCorpus is deterministic), so
// generations never change results — the stamp only makes the plane's
// reuse observable.
type trainingPlane struct {
	// Docs holds the rendered (subsampled) document texts, in snapshot
	// order. Labels and Names align with Docs.
	Docs   []string
	Labels []int
	Names  []string

	mu         sync.Mutex
	refs       int
	generation uint64
	corpus     *ngram.Corpus
}

// planeGenerations stamps corpus build epochs across all planes.
var planeGenerations atomic.Uint64

// trainingPlaneFor returns the shared plane for a corpus, memoized in
// the feature cache. The returned plane holds no interned corpus until
// acquired.
func trainingPlaneFor(snap *dataset.Snapshot, terms int, seed int64) *trainingPlane {
	key := fmt.Sprintf("plane|%s|%d|%d", snap.ContentHash(), terms, seed)
	v, _ := featureCache.Do(key, func() (any, error) {
		return &trainingPlane{
			Docs:   nggDocuments(snap, terms, seed),
			Labels: snap.Labels(),
			Names:  snap.Domains(),
		}, nil
	})
	return v.(*trainingPlane)
}

// acquire pins the plane's interned corpus, building it (documents in
// parallel) if no other holder has it, and returns the build epoch's
// generation stamp. Every acquire must be paired with a release;
// between the two, the plane's corpus-reading methods are valid and
// the corpus is guaranteed stable.
func (p *trainingPlane) acquire() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refs++
	if p.corpus == nil {
		plan := parallel.PlanGrainFor("plane-build", 0, 1, len(p.Docs))
		p.corpus = ngram.NewCorpus(p.Docs, plan.DocWorkers, plan.DocGrain)
		p.generation = planeGenerations.Add(1)
	}
	return p.generation
}

// release drops one holder's pin; the last release frees the corpus.
// (While any holder remains, neither release nor a concurrent acquire
// writes p.corpus, so holders read it without the lock.)
func (p *trainingPlane) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refs--
	if p.refs <= 0 {
		p.refs = 0
		p.corpus = nil
	}
}

// classGraphs merges the documents listed in classIdx into per-class
// graphs in classIdx order, the order the sequential reference of
// featplane_test.go merges them in, hence bit-identical class graphs.
// Requires a held acquire.
func (p *trainingPlane) classGraphs(classIdx []int) (legit, illegit *ngram.ClassGraph) {
	legit, illegit = p.corpus.NewClass(), p.corpus.NewClass()
	for _, i := range classIdx {
		if p.Labels[i] == ml.Legitimate {
			legit.Merge(i)
		} else {
			illegit.Merge(i)
		}
	}
	return legit, illegit
}

// featureDataset builds one fold's 8-feature similarity dataset from
// the interned corpus: class graphs merged from classIdx, then one
// CompareBoth per document — no graph construction at all. Rows are
// bit-identical to those of the sequential reference (featplane_test.go).
// workers/grain bound the document fan-out (a GrainPlan's
// DocWorkers/DocGrain).
func (p *trainingPlane) featureDataset(classIdx []int, workers, grain int) *ml.Dataset {
	legit, illegit := p.classGraphs(classIdx)
	feats := make([][]float64, len(p.Docs))
	parallel.ForGrain(len(p.Docs), workers, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			feats[i] = p.corpus.Features(i, legit, illegit)
		}
	})
	ds := &ml.Dataset{Dim: 8}
	for i, f := range feats {
		name := ""
		if p.Names != nil {
			name = p.Names[i]
		}
		ds.Add(ml.NewVector(f), p.Labels[i], name)
	}
	return ds
}

// textRanks computes the Equation-3 ranking score of every document
// against class graphs merged from classIdx, scaled to [0,1] —
// bit-identical to the sequential reference over the same half split.
func (p *trainingPlane) textRanks(classIdx []int, workers, grain int) []float64 {
	legit, illegit := p.classGraphs(classIdx)
	out := make([]float64, len(p.Docs))
	parallel.ForGrain(len(p.Docs), workers, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = p.corpus.TextRank(i, legit, illegit) / 8
		}
	})
	return out
}

// FeatureCacheScopeStats reports the shared feature cache's hit/miss
// counters under its one scope, featcache.ScopeTraining: every caller
// of the cache is the training pipeline.
func FeatureCacheScopeStats() map[string]featcache.CacheStats {
	hits, misses, _ := featureCache.Stats()
	return map[string]featcache.CacheStats{featcache.ScopeTraining: {Hits: hits, Misses: misses}}
}
