package textproc

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Buy Cialis ONLINE, no prescription!")
	want := []string{"buy", "cialis", "online", "no", "prescription"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeDropsSingleChars(t *testing.T) {
	got := Tokenize("a b cd e fg")
	want := []string{"cd", "fg"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeKeepsDigitsAndAlnum(t *testing.T) {
	got := Tokenize("vitamin B12 100mg")
	want := []string{"vitamin", "b12", "100mg"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeContractions(t *testing.T) {
	got := Tokenize("don't it's")
	want := []string{"don't", "it's"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeTrailingApostropheTrimmed(t *testing.T) {
	got := Tokenize("patients' rights")
	want := []string{"patients", "rights"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Naïve Café")
	want := []string{"naïve", "café"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestPreprocessorRemovesStopWords(t *testing.T) {
	p := NewPreprocessor()
	got := p.Terms("the pharmacy is in the city and it sells drugs")
	for _, tok := range got {
		if StopWords()[tok] {
			t.Errorf("stop word %q survived", tok)
		}
	}
	found := false
	for _, tok := range got {
		if tok == "pharmacy" {
			found = true
		}
	}
	if !found {
		t.Errorf("content word dropped: %v", got)
	}
}

func TestPreprocessorNoStemming(t *testing.T) {
	p := NewPreprocessor()
	got := p.Terms("prescriptions prescription prescribing")
	want := []string{"prescriptions", "prescription", "prescribing"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stemming applied? %v", got)
	}
}

func TestPreprocessorExtraStopWords(t *testing.T) {
	p := NewPreprocessor("pharmacy")
	got := p.Terms("great pharmacy deals")
	want := []string{"great", "deals"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestPreprocessorZeroValue(t *testing.T) {
	var p Preprocessor
	got := p.Terms("the medicine")
	if !reflect.DeepEqual(got, []string{"medicine"}) {
		t.Errorf("zero-value preprocessor: %v", got)
	}
}

func TestSummarize(t *testing.T) {
	got := Summarize([]string{"page one", "page two", "page three"})
	if got != "page one page two page three" {
		t.Errorf("Summarize = %q", got)
	}
	if Summarize(nil) != "" {
		t.Error("empty summarize")
	}
}

func TestSubsampleSize(t *testing.T) {
	terms := make([]string, 100)
	for i := range terms {
		terms[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	rng := rand.New(rand.NewSource(1))
	got := Subsample(terms, 30, rng)
	if len(got) != 30 {
		t.Errorf("len = %d", len(got))
	}
	// No duplicates of positions: all sampled terms exist in the source
	// multiset (they must form a sub-multiset).
	src := map[string]int{}
	for _, s := range terms {
		src[s]++
	}
	cnt := map[string]int{}
	for _, s := range got {
		cnt[s]++
		if cnt[s] > src[s] {
			t.Errorf("term %q sampled more often than present", s)
		}
	}
}

func TestSubsampleAllWhenKZeroOrLarge(t *testing.T) {
	terms := []string{"x1", "y1", "z1"}
	rng := rand.New(rand.NewSource(2))
	if got := Subsample(terms, 0, rng); !reflect.DeepEqual(got, terms) {
		t.Errorf("k=0 should return all: %v", got)
	}
	if got := Subsample(terms, 10, rng); !reflect.DeepEqual(got, terms) {
		t.Errorf("k>len should return all: %v", got)
	}
}

func TestSubsampleDeterministic(t *testing.T) {
	terms := make([]string, 50)
	for i := range terms {
		terms[i] = SizeLabel(i + 10)
	}
	a := Subsample(terms, 10, rand.New(rand.NewSource(3)))
	b := Subsample(terms, 10, rand.New(rand.NewSource(3)))
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different subsample")
	}
}

func TestSizeLabel(t *testing.T) {
	if SizeLabel(0) != "All" || SizeLabel(100) != "100" || SizeLabel(2000) != "2000" {
		t.Error("SizeLabel wrong")
	}
}

func TestSubsampleSizesMatchPaper(t *testing.T) {
	want := []int{100, 250, 1000, 2000, 0}
	if !reflect.DeepEqual(SubsampleSizes, want) {
		t.Errorf("SubsampleSizes = %v", SubsampleSizes)
	}
}

func TestStopWordsCopy(t *testing.T) {
	a := StopWords()
	a["pharmacy"] = true
	if StopWords()["pharmacy"] {
		t.Error("StopWords returns shared state")
	}
	// Spot-check canonical members.
	for _, w := range []string{"the", "and", "of", "with"} {
		if !StopWords()[w] {
			t.Errorf("missing stop word %q", w)
		}
	}
	words := make([]string, 0)
	for w := range StopWords() {
		words = append(words, w)
	}
	sort.Strings(words)
	if len(words) != 33 {
		t.Errorf("stop list has %d words, want 33 (Lucene list)", len(words))
	}
}

// FuzzTerms checks the one-pass tokenizer against the builder-based
// reference: Tokenize, the zero Preprocessor and a Preprocessor with one
// extra stop word must return exactly what the reference returns, nil
// and empty slices included. Seeds are in testdata/fuzz/FuzzTerms.
func FuzzTerms(f *testing.F) {
	f.Fuzz(func(t *testing.T, text, extra string) {
		if got, want := Tokenize(text), tokenizeReference(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", text, got, want)
		}
		var zero Preprocessor
		if got, want := zero.Terms(text), termsReference(text, StopWords()); !reflect.DeepEqual(got, want) {
			t.Fatalf("zero Preprocessor Terms(%q) = %q, want %q", text, got, want)
		}
		stop := StopWords()
		stop[strings.ToLower(extra)] = true
		if got, want := NewPreprocessor(extra).Terms(text), termsReference(text, stop); !reflect.DeepEqual(got, want) {
			t.Fatalf("Terms(%q) with stop word %q = %q, want %q", text, extra, got, want)
		}
	})
}

// benchText is storefront-like summary text: mostly ASCII, some
// stop words, contractions, numbers and a few non-ASCII words.
var benchText = strings.Repeat("Buy generic Cialis & Viagra ONLINE - no prescription required! "+
	"It's the patients' choice: 100mg tablets, 24/7 support. Café naïve Größe. ", 40)

// TestTermsAllocations pins the kernel's allocation budget: one string
// per kept term plus the growth steps of the result slice; the term
// buffer lives on the stack.
func TestTermsAllocations(t *testing.T) {
	p := NewPreprocessor()
	kept := len(p.Terms(benchText))
	var grown []string
	growths := 0
	for i := 0; i < kept; i++ {
		if len(grown) == cap(grown) {
			growths++
		}
		grown = append(grown, "")
	}
	allocs := testing.AllocsPerRun(20, func() { termsSink = p.Terms(benchText) })
	if limit := float64(kept + growths); allocs > limit {
		t.Errorf("Terms allocates %.0f times for %d kept terms, want <= %.0f", allocs, kept, limit)
	}
}

var termsSink []string

func BenchmarkTerms(b *testing.B) {
	p := NewPreprocessor()
	b.SetBytes(int64(len(benchText)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		termsSink = p.Terms(benchText)
	}
}
