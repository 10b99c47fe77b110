package ngram

import (
	"math/bits"
	"sync"

	"pharmaverify/internal/parallel"
)

// A Corpus is built for callers that merge and compare the same set of
// documents many times (the cross-validation folds of a training
// corpus). It numbers the distinct edges of its documents' graphs
// densely, once; each document becomes a list of edge ids and
// co-occurrence counts in its own insertion order, and a ClassGraph
// becomes a flat weight slice indexed by edge id. Merge and
// CompareBoth then index slices where the map-based definition probes
// a hash map per edge.
//
// The Corpus is bit-for-bit identical to the map-based reference graph
// of the tests (see TestCorpusMatchesGraphsProperty and
// FuzzCorpusFeatures), because it performs the same floating-point
// operations in the same order:
//
//   - Every per-edge update touches only that edge's own accumulator,
//     and edge ids are only addresses, so the numbering never changes
//     an operand or the order in which one accumulator is updated.
//   - Merges fold documents in the caller's order, each document's
//     edges in its insertion order, with the reference's
//     running-average expressions.
//   - CompareBoth walks the document's insertion order, as the
//     reference's VS does, so VS sums the same terms in the same
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
	ids []int32  // edge ids, in the document's insertion order
	w   []uint32 // co-occurrence counts, aligned with ids; float64(w[k]) is exact
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
//     are built in parallel into per-slot key buffers, numbered across
//     the shards, and the key buffers reused for the next chunk.
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

// edgeTable numbers edges in order of first appearance: a
// linear-probing hash table from edge to local id with power-of-two
// capacity, doubled when an insert would take it past a load of 3/4.
// Each shard of the corpus numbering has one, and so does each
// document builder, which numbers one document's edges at a time.
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

// reset empties the table, keeping its capacity.
func (t *edgeTable) reset() {
	clear(t.ids)
	t.n = 0
}

// docBuilder builds document graphs with reusable scratch: the rune,
// gram-id, key and count buffers and the edgeTable that dedupes a
// document's edges survive across documents, so they grow with the
// largest document's distinct edges, not its co-occurrences. It holds
// no result, so pooling it is safe at any concurrency.
type docBuilder struct {
	runes []rune
	grams []gramID
	keys  []packedEdge // the last document's distinct edges, in first-seen order
	w     []uint32     // their co-occurrence counts, aligned with keys
	seen  edgeTable
}

var builderPool = sync.Pool{New: func() any { return &docBuilder{seen: newEdgeTable()} }}

// build leaves text's distinct edges, with the paper's default rank
// and window, in b.keys in first-seen order and their co-occurrence
// counts, aligned, in b.w, until the next build. Each n-gram is
// connected to the n-grams that start within the DefaultWindow
// characters preceding it. The table numbers edges in first-seen
// order, so an edge's local id is its position in b.keys. A count is
// at most DefaultWindow times the document's rune count, so it fits a
// uint32 below 2³⁰ runes.
func (b *docBuilder) build(text string) {
	b.seen.reset()
	b.keys, b.w = b.keys[:0], b.w[:0]
	b.runes = b.runes[:0]
	for _, r := range text {
		b.runes = append(b.runes, r)
	}
	count := len(b.runes) - DefaultN + 1
	if count < 2 {
		return
	}
	if cap(b.grams) < count {
		b.grams = make([]gramID, count)
	}
	grams := b.grams[:count]
	for i := range grams {
		grams[i] = hashRunes(b.runes[i : i+DefaultN])
	}
	for i := 1; i < count; i++ {
		for j := max(0, i-DefaultWindow); j < i; j++ {
			e := packedEdge{grams[j], grams[i]}
			if id := b.seen.number(e, edgeHash(e)<<shardBits); int(id) < len(b.keys) {
				b.w[id]++
			} else {
				b.keys = append(b.keys, e)
				b.w = append(b.w, 1)
			}
		}
	}
}

// NewCorpus builds the graphs of texts with the paper's default
// parameters and numbers their distinct edges densely. workers and
// grain bound the parallel document builds and the final id rewrite
// (see parallel.ForGrain); workers also bounds the shards numbered at
// once. The corpus is the same at every worker count and grain.
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
			bld := builderPool.Get().(*docBuilder)
			for i := a; i < b; i++ {
				bld.build(texts[lo+i])
				chunk[i] = append(chunk[i][:0], bld.keys...)
				w := make([]uint32, len(bld.w))
				copy(w, bld.w)
				docs[lo+i] = corpusDoc{ids: make([]int32, len(w)), w: w}
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

// DocSize reports the number of distinct edges |G| of corpus document
// doc's graph.
func (c *Corpus) DocSize(doc int) int { return len(c.docs[doc].ids) }

// ClassGraph is a class graph over a Corpus's edge numbering, merged
// from corpus documents with a running-average update. It keeps a lazy
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

// Size reports the number of edges |G| of the class graph.
func (g *ClassGraph) Size() int { return g.size }

// Merge folds corpus document doc into g with the running-average
// update of the JInsect class-graph operator: after merging k
// documents the edge weights are the mean weights over those
// documents, with edges absent from a document decaying toward zero
// via the 1/(k+1) learning factor. The update w' = w·(1-l) + w_doc·l
// is applied lazily through the global scale, so a merge costs
// O(|doc|).
func (g *ClassGraph) Merge(doc int) {
	d := &g.c.docs[doc]
	l := 1.0 / float64(g.merged+1)
	if g.merged == 0 {
		for k, id := range d.ids {
			g.w[id] = float64(d.w[k])
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
		g.w[id] += l * float64(d.w[k]) * inv
	}
	g.merged++
}

// CompareBoth computes the four similarities of corpus document doc
// against two class graphs of the same corpus in one traversal of the
// document's edges.
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
			wi := float64(d.w[k])
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

// Features returns corpus document doc's 8-feature vector against the
// two class graphs, in the FeatureNames layout.
func (c *Corpus) Features(doc int, legit, illegit *ClassGraph) []float64 {
	a, b := c.CompareBoth(doc, legit, illegit)
	return featureRow(nil, a, b)
}

// TextRank returns corpus document doc's Equation-3 ranking score
// against the two class graphs, in [0, 8].
func (c *Corpus) TextRank(doc int, legit, illegit *ClassGraph) float64 {
	return textRank(c.CompareBoth(doc, legit, illegit))
}
