package ngram

import (
	"math/bits"

	"pharmaverify/internal/parallel"
)

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

// The edge numbering is sharded and chunked, so it runs on every core
// and never holds more than one chunk's edge keys:
//
//   - Each distinct edge belongs to one of corpusShards shards, chosen
//     by the top bits of edgeHash. Each shard numbers its own edges
//     0, 1, 2, … in order of first appearance (document order, then
//     each document's insertion order) through an open-addressed
//     edgeTable, and the shards of a chunk run concurrently.
//   - Documents are built corpusChunk at a time: a chunk's documents
//     are built in parallel into copied key lists, numbered across the
//     shards, and their key buffers reused for the next chunk.
//   - A final pass rewrites each shard-local id as the shard's offset
//     (the edge counts of the shards before it) plus its local id.
//
// The shard count and the numbering order within a shard are fixed,
// so the ids — and the whole Corpus — are the same at every worker
// count, grain and chunk size.
const (
	shardBits    = 3
	corpusShards = 1 << shardBits
	corpusChunk  = 32 // documents built and numbered per step
	// shardEdgeLimit bounds a shard's local ids so that a local id
	// tagged with its shard (local<<shardBits | shard) fits an int32.
	shardEdgeLimit = 1 << (31 - shardBits)
)

// edgeHash mixes an edge's two gram ids into 64 bits: its top
// shardBits bits pick the edge's shard, the bits below them its slot
// in the shard's table.
func edgeHash(e packedEdge) uint64 {
	return (uint64(e.src) ^ bits.RotateLeft64(uint64(e.dst), 32)) * 0x9e3779b97f4a7c15
}

// edgeTable is one shard's numbering: a linear-probing hash table from
// edge to local id with power-of-two capacity, doubled when an insert
// would take it past a load of 3/4.
type edgeTable struct {
	keys  []packedEdge
	ids   []int32 // local id + 1; 0 marks an empty slot
	n     int32   // edges numbered so far
	shift uint    // 64 - log2(len(keys))
}

func newEdgeTable() edgeTable {
	const slots = 1 << 10
	return edgeTable{keys: make([]packedEdge, slots), ids: make([]int32, slots), shift: 64 - 10}
}

// number returns e's local id, numbering e next if it is new. h is
// edgeHash(e) shifted left by shardBits.
func (t *edgeTable) number(e packedEdge, h uint64) int32 {
	mask := len(t.keys) - 1
	for i := int(h >> t.shift); ; i = (i + 1) & mask {
		id := t.ids[i]
		if id == 0 {
			if t.n == shardEdgeLimit {
				panic("ngram: a corpus shard holds more distinct edges than its id bits can number")
			}
			if 4*(int(t.n)+1) > 3*len(t.keys) {
				t.grow()
				return t.number(e, h)
			}
			t.keys[i] = e
			t.n++
			t.ids[i] = t.n
			return t.n - 1
		}
		if t.keys[i] == e {
			return id - 1
		}
	}
}

// grow doubles the table and reinserts its edges.
func (t *edgeTable) grow() {
	keys, ids := t.keys, t.ids
	t.keys = make([]packedEdge, 2*len(keys))
	t.ids = make([]int32, 2*len(ids))
	t.shift--
	mask := len(t.keys) - 1
	for j, id := range ids {
		if id == 0 {
			continue
		}
		i := int(edgeHash(keys[j]) << shardBits >> t.shift)
		for t.ids[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.ids[i] = keys[j], id
	}
}

// NewCorpus builds the graphs of texts with the paper's default
// parameters, as FromDocument does, and numbers their distinct edges
// densely. workers and grain bound the parallel document builds and
// the final id rewrite (see parallel.ForGrain); workers also bounds
// the shards numbered at once. The corpus is the same at every worker
// count and grain.
func NewCorpus(texts []string, workers, grain int) *Corpus {
	docs := make([]corpusDoc, len(texts))
	var tables [corpusShards]edgeTable
	for s := range tables {
		tables[s] = newEdgeTable()
	}
	keys := make([][]packedEdge, min(corpusChunk, len(texts)))
	for lo := 0; lo < len(texts); lo += corpusChunk {
		chunk := keys[:min(corpusChunk, len(texts)-lo)]
		parallel.ForGrain(len(chunk), workers, grain, func(a, b int) {
			bld := builderPool.Get().(*Builder)
			for i := a; i < b; i++ {
				g := bld.Doc(texts[lo+i])
				chunk[i] = append(chunk[i][:0], g.order...)
				w := make([]float64, len(g.order))
				for k, e := range g.order {
					w[k] = g.w[e] * g.scale
				}
				docs[lo+i] = corpusDoc{ids: make([]int32, len(g.order)), w: w}
			}
			builderPool.Put(bld)
		})
		// Each shard writes only the ids of its own edges; until the
		// rewrite below, an id is its local id tagged with its shard.
		parallel.For(corpusShards, workers, func(s int) {
			t := &tables[s]
			for i, ks := range chunk {
				ids := docs[lo+i].ids
				for k, e := range ks {
					if h := edgeHash(e); int(h>>(64-shardBits)) == s {
						ids[k] = t.number(e, h<<shardBits)<<shardBits | int32(s)
					}
				}
			}
		})
	}
	var offset [corpusShards]int32
	edges := 0
	for s := range tables {
		offset[s] = int32(edges)
		edges += int(tables[s].n)
	}
	parallel.ForGrain(len(docs), workers, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ids := docs[i].ids
			for k, id := range ids {
				ids[k] = offset[id&(corpusShards-1)] + id>>shardBits
			}
		}
	})
	return &Corpus{docs: docs, edges: edges}
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
