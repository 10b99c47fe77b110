package ngram

// This file is the naive n-gram graph of the definitions, the
// reference the Corpus is tested against: a document graph is a map
// from edge to weight, a class graph merges document graphs one at a
// time, and each similarity is computed on its own, straight from its
// formula. Float sums run along a graph's edge-insertion order, never
// along map order, so the reference itself is deterministic to the
// last bit.

// refGraph is a weighted directed n-gram graph. Class graphs built by
// merge store weights with a lazy global scale factor: the true
// weight of edge e is w[e]·scale.
type refGraph struct {
	w      map[packedEdge]float64
	order  []packedEdge // edges in first-insertion order
	scale  float64
	merged int // document graphs folded into a class graph
}

func newRefGraph() *refGraph {
	return &refGraph{w: make(map[packedEdge]float64), scale: 1}
}

// fromText builds the n-gram graph of a text with rank n and
// neighborhood window win. Each n-gram is connected to the n-grams
// that start within the win characters preceding it; edge weights
// count co-occurrences, as in the JInsect implementation.
func fromText(text string, n, win int) *refGraph {
	g := newRefGraph()
	runes := []rune(text)
	if len(runes) < n {
		return g
	}
	ids := make([]gramID, len(runes)-n+1)
	for i := range ids {
		ids[i] = hashRunes(runes[i : i+n])
	}
	for i := 1; i < len(ids); i++ {
		for j := max(0, i-win); j < i; j++ {
			e := packedEdge{ids[j], ids[i]}
			if _, ok := g.w[e]; !ok {
				g.order = append(g.order, e)
			}
			g.w[e]++
		}
	}
	return g
}

// fromDocument builds a graph with the paper's default parameters.
func fromDocument(text string) *refGraph { return fromText(text, DefaultN, DefaultWindow) }

// hashGram hashes the runes of a string, as hashRunes hashes the
// equivalent slice.
func hashGram(s string) gramID { return hashRunes([]rune(s)) }

// weight returns the true weight of the edge src → dst (0 when
// absent).
func (g *refGraph) weight(src, dst string) float64 {
	return g.w[packedEdge{hashGram(src), hashGram(dst)}] * g.scale
}

// size reports the number of edges |G|.
func (g *refGraph) size() int { return len(g.w) }

// merge folds a document graph into g with the running-average update
// of the JInsect class-graph operator: after k documents the weights
// are the mean weights over them, edges absent from a document
// decaying through the 1/(k+1) learning factor. The update
// w' = w·(1-l) + w_doc·l is applied lazily through the global scale.
func (g *refGraph) merge(doc *refGraph) {
	l := 1.0 / float64(g.merged+1)
	if g.merged == 0 {
		for _, e := range doc.order {
			g.w[e] = doc.w[e] * doc.scale
		}
		g.order = append(g.order, doc.order...)
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
	g.merged++
}

// mergeAll builds a class graph from document graphs, in order.
func mergeAll(docs []*refGraph) *refGraph {
	g := newRefGraph()
	for _, d := range docs {
		g.merge(d)
	}
	return g
}

// containmentSimilarity CS(Gi,Gj) = Σ_{e∈Gi} μ(e,Gj) / min(|Gi|,|Gj|).
func containmentSimilarity(gi, gj *refGraph) float64 {
	if gi.size() == 0 || gj.size() == 0 {
		return 0
	}
	shared := 0
	for e := range gi.w {
		if _, ok := gj.w[e]; ok {
			shared++
		}
	}
	return float64(shared) / float64(min(gi.size(), gj.size()))
}

// sizeSimilarity SS(Gi,Gj) = min(|Gi|,|Gj|) / max(|Gi|,|Gj|).
func sizeSimilarity(gi, gj *refGraph) float64 {
	if gi.size() == 0 || gj.size() == 0 {
		return 0
	}
	return float64(min(gi.size(), gj.size())) / float64(max(gi.size(), gj.size()))
}

// valueSimilarity VS(Gi,Gj) = Σ_{e∈Gi} (min(w_e^i,w_e^j)/max(w_e^i,w_e^j)) / max(|Gi|,|Gj|),
// summed in gi's edge-insertion order.
func valueSimilarity(gi, gj *refGraph) float64 {
	if gi.size() == 0 || gj.size() == 0 {
		return 0
	}
	var sum float64
	for _, e := range gi.order {
		wj, ok := gj.w[e]
		if !ok {
			continue
		}
		lo, hi := gi.w[e]*gi.scale, wj*gj.scale
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > 0 {
			sum += lo / hi
		}
	}
	return sum / float64(max(gi.size(), gj.size()))
}

// normalizedValueSimilarity NVS = VS / SS.
func normalizedValueSimilarity(gi, gj *refGraph) float64 {
	ss := sizeSimilarity(gi, gj)
	if ss == 0 {
		return 0
	}
	return valueSimilarity(gi, gj) / ss
}

// refSimilarity is the four standalone similarities of doc against
// one class graph.
func refSimilarity(doc, class *refGraph) Similarity {
	return Similarity{
		CS:  containmentSimilarity(doc, class),
		SS:  sizeSimilarity(doc, class),
		VS:  valueSimilarity(doc, class),
		NVS: normalizedValueSimilarity(doc, class),
	}
}

// refFeatures is the 8-feature vector of doc against both class
// graphs, in the FeatureNames layout.
func refFeatures(doc, legit, illegit *refGraph) []float64 {
	l, i := refSimilarity(doc, legit), refSimilarity(doc, illegit)
	return []float64{l.CS, l.SS, l.VS, l.NVS, i.CS, i.SS, i.VS, i.NVS}
}

// refTextRank is Equation (3) of the paper over the standalone
// similarities.
func refTextRank(doc, legit, illegit *refGraph) float64 {
	l, i := refSimilarity(doc, legit), refSimilarity(doc, illegit)
	return l.CS + (1 - i.CS) +
		l.SS + (1 - i.SS) +
		l.VS + (1 - i.VS) +
		l.NVS + (1 - i.NVS)
}
