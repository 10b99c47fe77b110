// Package ngram implements the character N-Gram Graph text
// representation of Giannakopoulos et al. used by the paper (§4.1.2):
// vertices are character n-grams, weighted edges record how often two
// n-grams co-occur within a sliding window, class graphs are built by
// merging document graphs with a running-average update, and documents
// are compared to class graphs through the Containment (CS), Size (SS),
// Value (VS) and Normalized Value (NVS) similarities.
//
// The paper's configuration Lmin = Lmax = Dwin = 4 is the package
// default.
//
// Internally n-grams are represented by 64-bit FNV-1a hashes of their
// runes, so graph construction performs no per-position string
// allocation and edge maps hash fixed-size keys; the gram strings are
// retained in a side table only for the public Edge-based API. The
// collision probability at document scale (tens of thousands of
// distinct 4-grams against a 64-bit space) is negligible.
package ngram

import (
	"math"
	"sort"
)

// Default parameters from the paper (after [13]).
const (
	DefaultN      = 4
	DefaultWindow = 4
)

// Edge is a directed pair of character n-grams.
type Edge struct {
	Src, Dst string
}

// gramID is the 64-bit hash of one n-gram's runes.
type gramID uint64

// packedEdge is the internal edge key.
type packedEdge struct {
	src, dst gramID
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashRunes computes the FNV-1a hash of a rune slice.
func hashRunes(rs []rune) gramID {
	var h uint64 = fnvOffset
	for _, r := range rs {
		h ^= uint64(uint32(r))
		h *= fnvPrime
	}
	return gramID(h)
}

// hashGram hashes the runes of a string (matching hashRunes on the
// equivalent slice).
func hashGram(s string) gramID {
	var h uint64 = fnvOffset
	for _, r := range s {
		h ^= uint64(uint32(r))
		h *= fnvPrime
	}
	return gramID(h)
}

// Graph is a weighted directed n-gram graph.
//
// Class graphs built by Merge store weights with a lazy global scale
// factor so that merging a document costs O(|doc|) instead of O(|G|):
// the true weight of edge e is w[e] * scale.
type Graph struct {
	w     map[packedEdge]float64
	grams map[gramID]string // id → gram text, for the Edge-based API
	// order lists the edges in first-insertion order. Float
	// accumulations over a graph's edges (ValueSimilarity) iterate this
	// slice instead of the map: Go randomizes map iteration order, and
	// summing in a different order changes the rounding of the result,
	// which would make the similarity features differ between runs in
	// their last bits. Insertion order is fully determined by the input
	// text, so iterating it keeps every graph computation bit-for-bit
	// reproducible.
	order  []packedEdge
	scale  float64
	merged int // number of document graphs folded into a class graph
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		w:     make(map[packedEdge]float64),
		grams: make(map[gramID]string),
		scale: 1,
	}
}

// FromText builds the n-gram graph of a text with rank n and
// neighborhood window win. Each n-gram is connected to the n-grams that
// start within the win characters preceding it; edge weights count
// co-occurrences, as in the JInsect implementation.
func FromText(text string, n, win int) *Graph {
	if n <= 0 {
		n = DefaultN
	}
	if win <= 0 {
		win = DefaultWindow
	}
	g := New()
	runes := []rune(text)
	if len(runes) < n {
		return g
	}
	count := len(runes) - n + 1
	ids := make([]gramID, count)
	for i := 0; i < count; i++ {
		id := hashRunes(runes[i : i+n])
		ids[i] = id
		if _, ok := g.grams[id]; !ok {
			g.grams[id] = string(runes[i : i+n])
		}
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

// FromDocument builds a graph with the paper's default parameters.
func FromDocument(text string) *Graph { return FromText(text, DefaultN, DefaultWindow) }

// Size reports the number of edges |G|.
func (g *Graph) Size() int { return len(g.w) }

func packEdge(e Edge) packedEdge {
	return packedEdge{hashGram(e.Src), hashGram(e.Dst)}
}

// Weight returns the weight of edge e (0 when absent).
func (g *Graph) Weight(e Edge) float64 { return g.w[packEdge(e)] * g.scale }

// Contains reports whether the edge is present (the paper's μ(e,G)).
func (g *Graph) Contains(e Edge) bool {
	_, ok := g.w[packEdge(e)]
	return ok
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		w:      make(map[packedEdge]float64, len(g.w)),
		grams:  make(map[gramID]string, len(g.grams)),
		order:  append([]packedEdge(nil), g.order...),
		scale:  g.scale,
		merged: g.merged,
	}
	for e, w := range g.w {
		c.w[e] = w
	}
	for id, s := range g.grams {
		c.grams[id] = s
	}
	return c
}

// Merge folds another document graph into g using the running-average
// update of the JInsect class-graph operator: after merging k documents
// the edge weights are the mean weights over those documents, with
// edges absent from a document decaying toward zero via the 1/(k+1)
// learning factor. The update w' = w·(1-l) + w_doc·l is applied lazily
// through the global scale, so a merge costs O(|doc|).
func (g *Graph) Merge(doc *Graph) {
	l := 1.0 / float64(g.merged+1)
	// Iterate the document's deterministic edge order (not its map) so
	// the class graph's own edge order is reproducible as well.
	if g.merged == 0 {
		// First merge: copy the document as-is.
		for _, e := range doc.order {
			g.w[e] = doc.w[e] * doc.scale
		}
		g.order = append(g.order, doc.order...)
		for id, s := range doc.grams {
			g.grams[id] = s
		}
		g.scale = 1
		g.merged = 1
		return
	}
	g.scale *= 1 - l
	inv := 1 / g.scale
	for _, e := range doc.order {
		if _, ok := g.w[e]; !ok {
			g.order = append(g.order, e)
		}
		g.w[e] += l * doc.w[e] * doc.scale * inv
	}
	for id, s := range doc.grams {
		if _, ok := g.grams[id]; !ok {
			g.grams[id] = s
		}
	}
	g.merged++
}

// MergeAll builds a class graph from a set of document graphs.
func MergeAll(docs []*Graph) *Graph {
	g := New()
	for _, d := range docs {
		g.Merge(d)
	}
	return g
}

// ContainmentSimilarity CS(Gi,Gj) = Σ_{e∈Gi} μ(e,Gj) / min(|Gi|,|Gj|).
func ContainmentSimilarity(gi, gj *Graph) float64 {
	if gi.Size() == 0 || gj.Size() == 0 {
		return 0
	}
	shared := 0
	small, large := gi, gj
	if small.Size() > large.Size() {
		small, large = large, small
	}
	for e := range small.w {
		if _, ok := large.w[e]; ok {
			shared++
		}
	}
	return float64(shared) / float64(min(gi.Size(), gj.Size()))
}

// SizeSimilarity SS(Gi,Gj) = min(|Gi|,|Gj|) / max(|Gi|,|Gj|).
func SizeSimilarity(gi, gj *Graph) float64 {
	if gi.Size() == 0 || gj.Size() == 0 {
		return 0
	}
	return float64(min(gi.Size(), gj.Size())) / float64(max(gi.Size(), gj.Size()))
}

// ValueSimilarity VS(Gi,Gj) = Σ_{e∈Gi} (min(w_e^i,w_e^j)/max(w_e^i,w_e^j)) / max(|Gi|,|Gj|).
func ValueSimilarity(gi, gj *Graph) float64 {
	if gi.Size() == 0 || gj.Size() == 0 {
		return 0
	}
	var sum float64
	// Sum in gi's deterministic edge order; iterating the map here
	// would randomize the accumulation order and thus the rounding.
	for _, e := range gi.order {
		wi := gi.w[e]
		wj, ok := gj.w[e]
		if !ok {
			continue
		}
		lo, hi := wi*gi.scale, wj*gj.scale
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > 0 {
			sum += lo / hi
		}
	}
	return sum / float64(max(gi.Size(), gj.Size()))
}

// NormalizedValueSimilarity NVS = VS / SS.
func NormalizedValueSimilarity(gi, gj *Graph) float64 {
	ss := SizeSimilarity(gi, gj)
	if ss == 0 {
		return 0
	}
	return ValueSimilarity(gi, gj) / ss
}

// Similarity bundles the four measures of a document against one class
// graph.
type Similarity struct {
	CS, SS, VS, NVS float64
}

// Compare computes all four similarities of doc against class in a
// single traversal of doc's edges (see kernel.go). In particular NVS
// reuses the SS and VS already computed by the pass instead of
// recomputing both from scratch, as the standalone
// NormalizedValueSimilarity must. Results are bit-for-bit identical to
// the four standalone reference functions.
func Compare(doc, class *Graph) Similarity {
	return compareOne(doc, class)
}

// Features flattens similarities against the legitimate and
// illegitimate class graphs into the 8-feature vector used to train the
// N-Gram-Graph classifiers (Figure 2 of the paper).
func Features(doc, legitClass, illegitClass *Graph) []float64 {
	a, b := CompareBoth(doc, legitClass, illegitClass)
	return featureRow(nil, a, b)
}

// featureRow appends the Features layout of the two similarities to
// out[:0].
func featureRow(out []float64, legit, illegit Similarity) []float64 {
	return append(out[:0],
		legit.CS, legit.SS, legit.VS, legit.NVS,
		illegit.CS, illegit.SS, illegit.VS, illegit.NVS)
}

// FeatureNames labels the Features slots, for diagnostics.
var FeatureNames = []string{
	"CS_legit", "SS_legit", "VS_legit", "NVS_legit",
	"CS_illegit", "SS_illegit", "VS_illegit", "NVS_illegit",
}

// TextRank implements the paper's Equation (3): the ranking score of a
// pharmacy from its N-Gram-Graph similarities, summing the similarities
// to the legitimate class and the complements of the similarities to
// the illegitimate class.
func TextRank(doc, legitClass, illegitClass *Graph) float64 {
	return textRank(CompareBoth(doc, legitClass, illegitClass))
}

// textRank is Equation (3) over the two similarities.
func textRank(legit, illegit Similarity) float64 {
	return legit.CS + (1 - illegit.CS) +
		legit.SS + (1 - illegit.SS) +
		legit.VS + (1 - illegit.VS) +
		legit.NVS + (1 - illegit.NVS)
}

// Edges returns the edges sorted by decreasing weight (ties by lexical
// order), up to k entries — useful for inspecting what a class graph
// has learned.
func (g *Graph) Edges(k int) []Edge {
	type we struct {
		e Edge
		w float64
	}
	es := make([]we, 0, len(g.w))
	for pe, w := range g.w {
		es = append(es, we{Edge{g.grams[pe.src], g.grams[pe.dst]}, w})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].w != es[j].w {
			return es[i].w > es[j].w
		}
		if es[i].e.Src != es[j].e.Src {
			return es[i].e.Src < es[j].e.Src
		}
		return es[i].e.Dst < es[j].e.Dst
	})
	if k > 0 && k < len(es) {
		es = es[:k]
	}
	out := make([]Edge, len(es))
	for i := range es {
		out[i] = es[i].e
	}
	return out
}

// MaxWeight returns the largest edge weight (0 for an empty graph).
func (g *Graph) MaxWeight() float64 {
	var m float64
	for _, w := range g.w {
		m = math.Max(m, w)
	}
	return m * g.scale
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
