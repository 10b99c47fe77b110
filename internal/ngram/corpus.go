package ngram

import "pharmaverify/internal/parallel"

// This file is the interned twin of the map-based class-graph
// pipeline, for callers that merge and compare the same set of
// documents many times (the cross-validation folds of a training
// corpus). A Corpus numbers the distinct edges of its documents'
// graphs densely, once; each document becomes a list of edge ids and
// true weights in its own insertion order, and a ClassGraph becomes a
// flat weight slice indexed by edge id. Merge and CompareBoth then
// index slices where Graph.Merge and the Graph kernel probe a hash map
// per edge.
//
// The dense twins are bit-for-bit identical to the map-based ones
// (see TestCorpusMatchesGraphsProperty and FuzzCorpusFeatures),
// because they perform the same floating-point operations in the same
// order:
//
//   - Every per-edge update touches only that edge's own accumulator,
//     and edge ids are only addresses, so the numbering never changes
//     an operand or the order in which one accumulator is updated.
//   - Merges fold documents in the caller's order, each document's
//     edges in its insertion order, with the same running-average
//     expressions as Graph.Merge.
//   - CompareBoth walks the document's insertion order, exactly as
//     the Graph kernel does, so VS sums the same terms in the same
//     order; CS and SS are functions of integer counts.
//
// Presence is tested as weight ≠ 0 instead of map membership. That is
// exact because a present edge's weight is always > 0: a document's
// weights are co-occurrence counts ≥ 1, the first merge copies them,
// and every later merge multiplies the lazy scale by 1 - l ∈ (0, 1)
// and adds l·w·(1/scale) — a positive term — to each edge it touches,
// so a weight that becomes positive stays positive.

// Corpus is a fixed set of document graphs sharing one dense edge
// numbering. It is read-only once built and safe for concurrent use.
type Corpus struct {
	docs  []corpusDoc
	edges int
}

// corpusDoc is one document graph in the corpus's numbering.
type corpusDoc struct {
	ids []int32   // edge ids, in the document's insertion order
	w   []float64 // true weights (co-occurrence counts), aligned with ids
}

// NewCorpus builds the graphs of texts with the paper's default
// parameters, as FromDocument does, and numbers their distinct edges
// densely. workers and grain bound the parallel document builds (see
// parallel.ForGrain); the numbering pass is sequential, in document
// order, so a corpus is the same at every worker count.
func NewCorpus(texts []string, workers, grain int) *Corpus {
	docs := make([]corpusDoc, len(texts))
	keys := make([][]packedEdge, len(texts))
	parallel.ForGrain(len(texts), workers, grain, func(lo, hi int) {
		b := builderPool.Get().(*Builder)
		for i := lo; i < hi; i++ {
			g := b.Doc(texts[i])
			keys[i] = append([]packedEdge(nil), g.order...)
			w := make([]float64, len(g.order))
			for k, e := range g.order {
				w[k] = g.w[e] * g.scale
			}
			docs[i].w = w
		}
		builderPool.Put(b)
	})
	// int32 ids cover 2^31 distinct edges, far more than any corpus
	// whose numbering map fits in memory.
	number := make(map[packedEdge]int32)
	for i, ks := range keys {
		ids := make([]int32, len(ks))
		for k, e := range ks {
			id, ok := number[e]
			if !ok {
				id = int32(len(number))
				number[e] = id
			}
			ids[k] = id
		}
		docs[i].ids = ids
		keys[i] = nil
	}
	return &Corpus{docs: docs, edges: len(number)}
}

// ClassGraph is a class graph over a Corpus's edge numbering, the
// dense twin of a Graph built by Merge. Like Graph it keeps a lazy
// global scale: the true weight of edge id is w[id]·scale, and an edge
// is present exactly when w[id] ≠ 0 (see the invariant above).
type ClassGraph struct {
	c      *Corpus
	w      []float64
	size   int // present edges, |G|
	scale  float64
	merged int // documents folded in
}

// NewClass returns an empty class graph over the corpus's edges.
func (c *Corpus) NewClass() *ClassGraph {
	return &ClassGraph{c: c, w: make([]float64, c.edges), scale: 1}
}

// Merge folds corpus document doc into g with the running-average
// update of Graph.Merge, performing the same float operations in the
// same order.
func (g *ClassGraph) Merge(doc int) {
	d := &g.c.docs[doc]
	l := 1.0 / float64(g.merged+1)
	if g.merged == 0 {
		for k, id := range d.ids {
			g.w[id] = d.w[k]
		}
		g.size = len(d.ids)
		g.scale = 1
		g.merged = 1
		return
	}
	g.scale *= 1 - l
	inv := 1 / g.scale
	for k, id := range d.ids {
		if g.w[id] == 0 {
			g.size++
		}
		// Graph.Merge multiplies by the document's scale too; a
		// document graph's scale is 1, so the product is unchanged.
		g.w[id] += l * d.w[k] * inv
	}
	g.merged++
}

// CompareBoth computes the four similarities of corpus document doc
// against two class graphs of the same corpus in one traversal of the
// document's edges — bit-for-bit what CompareBoth returns for the
// equivalent map-based graphs.
func (c *Corpus) CompareBoth(doc int, legit, illegit *ClassGraph) (Similarity, Similarity) {
	if legit.c != c || illegit.c != c {
		panic("ngram: class graph of another corpus")
	}
	d := &c.docs[doc]
	docSize := len(d.ids)
	wantL := docSize > 0 && legit.size > 0
	wantI := docSize > 0 && illegit.size > 0
	var accL, accI classAccum
	if wantL || wantI {
		for k, id := range d.ids {
			wi := d.w[k]
			if wantL {
				if wj := legit.w[id]; wj != 0 {
					accL.accumulate(wi, wj, legit.scale)
				}
			}
			if wantI {
				if wj := illegit.w[id]; wj != 0 {
					accI.accumulate(wi, wj, illegit.scale)
				}
			}
		}
	}
	return accL.finish(docSize, legit.size), accI.finish(docSize, illegit.size)
}

// Features is Features for corpus document doc: its 8-feature vector
// against the two class graphs.
func (c *Corpus) Features(doc int, legit, illegit *ClassGraph) []float64 {
	a, b := c.CompareBoth(doc, legit, illegit)
	return featureRow(nil, a, b)
}

// TextRank is TextRank (Equation 3) for corpus document doc.
func (c *Corpus) TextRank(doc int, legit, illegit *ClassGraph) float64 {
	return textRank(c.CompareBoth(doc, legit, illegit))
}
