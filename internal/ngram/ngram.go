// Package ngram implements the character N-Gram Graph text
// representation of Giannakopoulos et al. used by the paper (§4.1.2):
// vertices are character n-grams, weighted edges record how often two
// n-grams co-occur within a sliding window, class graphs are built by
// merging document graphs with a running-average update, and documents
// are compared to class graphs through the Containment (CS), Size (SS),
// Value (VS) and Normalized Value (NVS) similarities.
//
// The paper's configuration Lmin = Lmax = Dwin = 4 is the package's
// only configuration.
//
// A Corpus holds the graphs of a fixed set of documents under one
// dense edge numbering (corpus.go); class graphs merged from its
// documents are flat weight slices over those ids. The map-based
// graph of the definitions is kept in the package's tests as the
// reference the Corpus must match bit for bit.
//
// N-grams are represented by 64-bit FNV-1a hashes of their runes, so
// graph construction performs no per-position string allocation and
// edge keys are fixed-size. The collision probability at document
// scale (tens of thousands of distinct 4-grams against a 64-bit space)
// is negligible.
package ngram

// Default parameters from the paper (after [13]).
const (
	DefaultN      = 4
	DefaultWindow = 4
)

// gramID is the 64-bit hash of one n-gram's runes.
type gramID uint64

// packedEdge is a directed pair of n-grams, the edge key.
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

// Similarity bundles the four measures of a document against one class
// graph.
type Similarity struct {
	CS, SS, VS, NVS float64
}

// FeatureNames labels the 8-feature vector used to train the
// N-Gram-Graph classifiers (Figure 2 of the paper): the similarities
// against the legitimate class graph, then against the illegitimate
// one.
var FeatureNames = []string{
	"CS_legit", "SS_legit", "VS_legit", "NVS_legit",
	"CS_illegit", "SS_illegit", "VS_illegit", "NVS_illegit",
}

// featureRow appends the FeatureNames layout of the two similarities
// to out[:0].
func featureRow(out []float64, legit, illegit Similarity) []float64 {
	return append(out[:0],
		legit.CS, legit.SS, legit.VS, legit.NVS,
		illegit.CS, illegit.SS, illegit.VS, illegit.NVS)
}

// textRank implements the paper's Equation (3): the ranking score of a
// pharmacy from its N-Gram-Graph similarities, summing the
// similarities to the legitimate class and the complements of the
// similarities to the illegitimate class.
func textRank(legit, illegit Similarity) float64 {
	return legit.CS + (1 - illegit.CS) +
		legit.SS + (1 - illegit.SS) +
		legit.VS + (1 - illegit.VS) +
		legit.NVS + (1 - illegit.NVS)
}

// classAccum is the per-class accumulator of a single pass over a
// document's edges:
//
//   - CS counts shared edges, an integer, so traversal order is
//     irrelevant to it.
//   - VS sums min/max weight ratios in the document's edge-insertion
//     order, the order the definition's reference sums them in.
//   - SS is a pure function of the two sizes.
//   - NVS divides the VS the pass computed by that SS.
type classAccum struct {
	shared int     // edges of doc present in the class graph (CS numerator)
	vsum   float64 // Σ min/max weight ratio over shared edges (VS numerator)
}

// finish assembles the four measures from the accumulated pass.
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

// accumulate folds one shared document edge into the accumulator. wi
// is the document's weight; wj the class graph's raw weight, scaled
// here by its lazy scale.
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
