package ngram

import "sync"

// This file is the hot-path kernel of the n-gram-graph feature
// extraction: a single traversal of the document graph's edge order
// computes the Containment, Size, Value and Normalized Value
// similarities against one or both class graphs at once, with one map
// lookup per class per edge. The standalone similarity functions in
// graph.go remain the reference implementation; the kernel is
// bit-for-bit identical to them (see TestKernelMatchesNaive), because
// it performs the same floating-point operations in the same order:
//
//   - CS counts shared edges — an integer, so traversal order is
//     irrelevant to the result.
//   - VS sums min/max weight ratios over the *document's* deterministic
//     edge-insertion order, exactly like ValueSimilarity(doc, class).
//   - SS is a pure function of the two sizes.
//   - NVS divides the already-computed VS by the already-computed SS
//     instead of recomputing both from scratch.
//
// The pooled document builder below additionally removes the per-call
// allocations of graph construction on serving and feature-extraction
// paths: the rune buffer, the gram-id buffer, the edge map and the edge
// order slice are all reused across documents, and the gram side table
// (only needed by the public Edge-based API) is skipped entirely.

// classAccum is the per-class accumulator of the single-pass kernel.
type classAccum struct {
	shared int     // edges of doc present in the class graph (CS numerator)
	vsum   float64 // Σ min/max weight ratio over shared edges (VS numerator)
}

// finish assembles the four measures from the accumulated pass exactly
// as the reference functions would.
func (a classAccum) finish(docSize, classSize int) Similarity {
	if docSize == 0 || classSize == 0 {
		return Similarity{}
	}
	var s Similarity
	s.CS = float64(a.shared) / float64(min(docSize, classSize))
	s.SS = float64(min(docSize, classSize)) / float64(max(docSize, classSize))
	s.VS = a.vsum / float64(max(docSize, classSize))
	if s.SS != 0 {
		s.NVS = s.VS / s.SS
	}
	return s
}

// accumulate folds one document edge into the accumulator. wi is the
// document-side true weight (already scaled); wj the class-side raw
// weight, scaled here — the same expressions, in the same order, as
// ValueSimilarity.
func (a *classAccum) accumulate(wi, wj, classScale float64) {
	a.shared++
	lo, hi := wi, wj*classScale
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 0 {
		a.vsum += lo / hi
	}
}

// CompareBoth computes the four similarities of doc against two class
// graphs in a single traversal of doc's edges: one lookup into each
// class graph's edge map per document edge. It is bit-for-bit identical
// to Compare(doc, legit), Compare(doc, illegit) computed separately.
func CompareBoth(doc, legit, illegit *Graph) (Similarity, Similarity) {
	docSize := doc.Size()
	wantL := docSize > 0 && legit.Size() > 0
	wantI := docSize > 0 && illegit.Size() > 0
	var accL, accI classAccum
	if wantL || wantI {
		for _, e := range doc.order {
			wi := doc.w[e] * doc.scale
			if wantL {
				if wj, ok := legit.w[e]; ok {
					accL.accumulate(wi, wj, legit.scale)
				}
			}
			if wantI {
				if wj, ok := illegit.w[e]; ok {
					accI.accumulate(wi, wj, illegit.scale)
				}
			}
		}
	}
	return accL.finish(docSize, legit.Size()), accI.finish(docSize, illegit.Size())
}

// compareOne is the single-class single-pass kernel backing Compare.
func compareOne(doc, class *Graph) Similarity {
	docSize := doc.Size()
	if docSize == 0 || class.Size() == 0 {
		return Similarity{}
	}
	var acc classAccum
	for _, e := range doc.order {
		if wj, ok := class.w[e]; ok {
			acc.accumulate(doc.w[e]*doc.scale, wj, class.scale)
		}
	}
	return acc.finish(docSize, class.Size())
}

// Builder constructs document graphs with reusable scratch: the rune
// and gram-id buffers and the graph's edge map and order slice survive
// across builds, so a warm builder allocates nothing for a document no
// larger than the largest it has seen. The graph returned by Doc is
// owned by the builder — it is valid only until the next Doc call and
// must not be retained, merged into a class graph, or shared across
// goroutines. It carries no gram side table, so its Edges method
// reports empty gram strings; every similarity computation is
// unaffected (they read only the edge map, order and sizes).
type Builder struct {
	runes []rune
	ids   []gramID
	g     Graph
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	b := &Builder{}
	b.g.w = make(map[packedEdge]float64)
	b.g.scale = 1
	return b
}

// Doc builds the n-gram graph of text with the paper's default
// parameters into the builder's reusable graph. The edge map, edge
// order, weights and sizes are identical to FromDocument's.
func (b *Builder) Doc(text string) *Graph { return b.Build(text, DefaultN, DefaultWindow) }

// Build is Doc with explicit rank and window parameters.
func (b *Builder) Build(text string, n, win int) *Graph {
	if n <= 0 {
		n = DefaultN
	}
	if win <= 0 {
		win = DefaultWindow
	}
	g := &b.g
	clear(g.w)
	g.order = g.order[:0]
	g.scale = 1
	g.merged = 0

	b.runes = b.runes[:0]
	for _, r := range text {
		b.runes = append(b.runes, r)
	}
	if len(b.runes) < n {
		return g
	}
	count := len(b.runes) - n + 1
	if cap(b.ids) < count {
		b.ids = make([]gramID, count)
	}
	ids := b.ids[:count]
	for i := 0; i < count; i++ {
		ids[i] = hashRunes(b.runes[i : i+n])
	}
	for i := 1; i < count; i++ {
		lo := i - win
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			e := packedEdge{ids[j], ids[i]}
			if _, ok := g.w[e]; !ok {
				g.order = append(g.order, e)
			}
			g.w[e]++
		}
	}
	return g
}

// builderPool shares warm builders across the feature-extraction and
// serving paths. Builders hold only scratch state, never results, so
// pooling them is safe at any concurrency.
var builderPool = sync.Pool{New: func() any { return NewBuilder() }}

// DocFeatures computes the 8-feature similarity vector of one document
// text against both class graphs using pooled scratch, appending into
// out[:0] (pass nil to allocate). It is the allocation-free equivalent
// of Features(FromDocument(text), legit, illegit).
func DocFeatures(out []float64, text string, legit, illegit *Graph) []float64 {
	b := builderPool.Get().(*Builder)
	g := b.Doc(text)
	a, c := CompareBoth(g, legit, illegit)
	builderPool.Put(b)
	return featureRow(out, a, c)
}

// DocTextRank computes the Equation-3 ranking score of one document
// text against both class graphs using pooled scratch — the
// allocation-free equivalent of TextRank(FromDocument(text), ...).
func DocTextRank(text string, legit, illegit *Graph) float64 {
	b := builderPool.Get().(*Builder)
	g := b.Doc(text)
	a, c := CompareBoth(g, legit, illegit)
	builderPool.Put(b)
	return textRank(a, c)
}
