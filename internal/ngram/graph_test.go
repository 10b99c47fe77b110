package ngram

import (
	"math"
	"strings"
	"testing"
)

// The FromText cases pin the reference builder's window and weights;
// the Corpus cases below pin the similarity and merge semantics on the
// production API.

func TestFromTextSmall(t *testing.T) {
	// "abcde" with n=2, win=1: grams ab,bc,cd,de; edges ab→bc, bc→cd, cd→de.
	g := fromText("abcde", 2, 1)
	if g.size() != 3 {
		t.Fatalf("size = %d, want 3", g.size())
	}
	for _, e := range [][2]string{{"ab", "bc"}, {"bc", "cd"}, {"cd", "de"}} {
		if w := g.weight(e[0], e[1]); w != 1 {
			t.Errorf("weight(%v) = %v, want 1", e, w)
		}
	}
}

func TestFromTextWindow(t *testing.T) {
	// win=2 adds second-neighbor edges.
	g := fromText("abcde", 2, 2)
	if g.weight("ab", "cd") != 1 {
		t.Errorf("second-neighbor edge missing")
	}
	if g.size() != 5 {
		t.Errorf("size = %d, want 5", g.size())
	}
}

func TestFromTextRepetitionIncreasesWeight(t *testing.T) {
	g := fromText(strings.Repeat("abab", 5), 2, 1)
	if w := g.weight("ab", "ba"); w < 2 {
		t.Errorf("repeated co-occurrence weight = %v", w)
	}
}

func TestFromTextShorterThanN(t *testing.T) {
	if g := fromText("ab", 4, 4); g.size() != 0 {
		t.Errorf("short text must give empty graph")
	}
	if c := NewCorpus([]string{"abc"}, 1, 0); c.DocSize(0) != 0 {
		t.Errorf("corpus document shorter than a gram has %d edges", c.DocSize(0))
	}
}

// The corpus builds graphs with the paper's default rank and window.
func TestFromDocumentDefaults(t *testing.T) {
	const text = "online pharmacy store"
	c := NewCorpus([]string{text}, 1, 0)
	if c.DocSize(0) == 0 {
		t.Fatal("default graph empty")
	}
	if want := fromText(text, 4, 4).size(); c.DocSize(0) != want {
		t.Errorf("DocSize = %d, the n=4, window=4 graph has %d edges", c.DocSize(0), want)
	}
}

// classOf merges the listed corpus documents, in order, into a new
// class graph.
func classOf(c *Corpus, docs ...int) *ClassGraph {
	g := c.NewClass()
	for _, d := range docs {
		g.Merge(d)
	}
	return g
}

// similarity compares corpus document doc against one class graph.
func similarity(c *Corpus, doc int, class *ClassGraph) Similarity {
	s, _ := c.CompareBoth(doc, class, class)
	return s
}

// weight returns the true weight of edge id in the class graph.
func (g *ClassGraph) weight(id int32) float64 { return g.w[id] * g.scale }

func TestIdenticalGraphSimilarities(t *testing.T) {
	c := NewCorpus([]string{"buy viagra online without prescription cheap cialis"}, 1, 0)
	s := similarity(c, 0, classOf(c, 0))
	for name, v := range map[string]float64{"CS": s.CS, "SS": s.SS, "VS": s.VS, "NVS": s.NVS} {
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("%s(g,g) = %v", name, v)
		}
	}
}

func TestDisjointGraphSimilarities(t *testing.T) {
	c := NewCorpus([]string{"aaaaaaaabbbbbbb", "xxxxxxxxyyyyyyy"}, 1, 0)
	s := similarity(c, 0, classOf(c, 1))
	if s.CS != 0 {
		t.Errorf("CS disjoint = %v", s.CS)
	}
	if s.VS != 0 {
		t.Errorf("VS disjoint = %v", s.VS)
	}
}

func TestEmptyGraphSimilarities(t *testing.T) {
	c := NewCorpus([]string{"", "some medical content here"}, 1, 0)
	for name, s := range map[string]Similarity{
		"empty doc":   similarity(c, 0, classOf(c, 1)),
		"empty class": similarity(c, 1, c.NewClass()),
	} {
		if s != (Similarity{}) {
			t.Errorf("%s: similarities %+v, want all 0", name, s)
		}
	}
}

func TestSimilaritiesSymmetryProperties(t *testing.T) {
	c := NewCorpus([]string{
		"legitimate pharmacy with health information and prescriptions",
		"cheap viagra cialis no prescription required order now",
	}, 1, 0)
	ab := similarity(c, 0, classOf(c, 1))
	ba := similarity(c, 1, classOf(c, 0))
	// SS is symmetric.
	if ab.SS != ba.SS {
		t.Error("SS asymmetric")
	}
	// CS numerator direction differs but the μ sum over shared edges is
	// symmetric, and so is the min denominator → CS symmetric too.
	if math.Abs(ab.CS-ba.CS) > 1e-12 {
		t.Error("CS asymmetric")
	}
	// All similarities within [0,1].
	for name, v := range map[string]float64{"CS": ab.CS, "SS": ab.SS, "VS": ab.VS, "NVS": ab.NVS} {
		if v < 0 || v > 1+1e-12 {
			t.Errorf("%s = %v out of [0,1]", name, v)
		}
	}
}

func TestVSBoundedByCS(t *testing.T) {
	// Each VS term is ≤ 1 and only counted on shared edges, and the VS
	// denominator (max) ≥ CS denominator (min): VS ≤ CS.
	c := NewCorpus([]string{
		"pharmacy store health products medical advice",
		"pharmacy store cheap pills discount offers",
	}, 1, 0)
	if s := similarity(c, 0, classOf(c, 1)); s.VS > s.CS+1e-12 {
		t.Errorf("VS %v > CS %v", s.VS, s.CS)
	}
}

func TestMergeRunningAverage(t *testing.T) {
	// "abcde" has the single edge abcd→bcde, weight 1; in "abcdeabcde"
	// the same edge comes first and co-occurs twice.
	c := NewCorpus([]string{"abcde", "abcdeabcde"}, 1, 0)
	a, b := c.docs[0], c.docs[1]
	if len(a.ids) != 1 || b.ids[0] != a.ids[0] {
		t.Fatalf("edge ids %v and %v: want abcd→bcde first in both", a.ids, b.ids)
	}
	id := a.ids[0]
	class := classOf(c, 0)
	if got := class.weight(id); got != 1 {
		t.Errorf("after first merge w = %v", got)
	}
	class.Merge(1)
	// Running average of weights 1 and b's weight for abcd→bcde.
	want := (1 + float64(b.w[0])) / 2
	if got := class.weight(id); math.Abs(got-want) > 1e-12 {
		t.Errorf("after second merge w = %v, want %v", got, want)
	}
}

func TestMergeDecaysAbsentEdges(t *testing.T) {
	c := NewCorpus([]string{"abcde", "vwxyz"}, 1, 0) // abcd→bcde, vwxy→wxyz
	class := classOf(c, 0, 1)
	if got := class.weight(c.docs[0].ids[0]); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("absent edge decay: %v, want 0.5", got)
	}
}

func TestMergeAllOrderIndependentSize(t *testing.T) {
	c := NewCorpus([]string{"alpha beta gamma", "beta gamma delta", "gamma delta epsilon"}, 1, 0)
	g := classOf(c, 0, 1, 2)
	if g.Size() == 0 {
		t.Fatal("empty class graph")
	}
	if r := classOf(c, 2, 1, 0); r.Size() != g.Size() {
		t.Errorf("size %d merged in reverse, %d in order", r.Size(), g.Size())
	}
	// Every edge present in at least one doc must appear (weights > 0
	// after only 3 merges; decay cannot eliminate them).
	for d := range c.docs {
		for _, id := range c.docs[d].ids {
			if g.w[id] == 0 {
				t.Fatalf("class graph lost edge %d of doc %d", id, d)
			}
		}
	}
}

func TestFeaturesShape(t *testing.T) {
	c := NewCorpus([]string{
		"health pharmacy prescriptions fda approved medication guide",
		"cheap viagra cialis no prescription discount order",
		"buy cheap viagra online today",
	}, 1, 0)
	f := c.Features(2, classOf(c, 0), classOf(c, 1))
	if len(f) != 8 || len(FeatureNames) != 8 {
		t.Fatalf("feature length %d", len(f))
	}
	// The doc resembles the illegitimate class more: CS_illegit > CS_legit.
	if f[4] <= f[0] {
		t.Errorf("CS_illegit %v should exceed CS_legit %v", f[4], f[0])
	}
}

func TestTextRankOrdering(t *testing.T) {
	c := NewCorpus([]string{
		"pharmacy health insurance prescriptions refill fda information",
		"patient health services prescription medication pharmacy care",
		"cheap viagra cialis no prescription needed order now discount",
		"viagra discount cheap pills no prescription fast shipping",
		"pharmacy health prescription refill care information",
		"cheap viagra no prescription discount order",
	}, 1, 0)
	legitClass, illegitClass := classOf(c, 0, 1), classOf(c, 2, 3)
	rl := c.TextRank(4, legitClass, illegitClass)
	ri := c.TextRank(5, legitClass, illegitClass)
	if rl <= ri {
		t.Errorf("TextRank(legit)=%v must exceed TextRank(illegit)=%v", rl, ri)
	}
	// Range: each of the 8 summands is in [0,1].
	if rl < 0 || rl > 8 || ri < 0 || ri > 8 {
		t.Errorf("TextRank out of [0,8]: %v %v", rl, ri)
	}
}

func TestUnicodeText(t *testing.T) {
	const text = "ωμέγα φαρμακείο"
	c := NewCorpus([]string{text}, 1, 0)
	if c.DocSize(0) == 0 {
		t.Error("unicode text produced empty graph")
	}
	if want := fromDocument(text).size(); c.DocSize(0) != want {
		t.Errorf("DocSize = %d, reference graph has %d edges", c.DocSize(0), want)
	}
}
