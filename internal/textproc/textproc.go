// Package textproc implements the paper's text preprocessing (§4.1):
// tokenization, Lucene-style stop-word removal without stemming, the
// summarization step that merges all crawled pages of a pharmacy into a
// single document, and the random term subsampling (100/250/1000/2000
// terms) used throughout the experiments.
package textproc

import (
	"math/rand"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize lower-cases the text and splits it into terms on any
// non-letter/non-digit rune, mirroring Lucene's StandardTokenizer for
// plain English content. Single-character terms are dropped.
func Tokenize(text string) []string {
	return terms(text, nil, 0)
}

// Preprocessor applies tokenization and stop-word removal. The zero
// value uses the default Lucene stop-word list; no stemming is applied,
// matching the paper (technical terms and trademarks survive intact).
type Preprocessor struct {
	stop map[string]bool
	// maxStop is the byte length of the longest stop word; longer
	// terms skip the set lookup.
	maxStop int
}

// defaultStop backs the zero Preprocessor. It is never written.
var (
	defaultStop    = StopWords()
	defaultMaxStop = maxLen(defaultStop)
)

// NewPreprocessor builds a Preprocessor with the default stop words plus
// any extra words supplied.
func NewPreprocessor(extraStopWords ...string) *Preprocessor {
	stop := StopWords()
	for _, w := range extraStopWords {
		stop[strings.ToLower(w)] = true
	}
	return &Preprocessor{stop: stop, maxStop: maxLen(stop)}
}

// Terms tokenizes text and removes stop words.
func (p *Preprocessor) Terms(text string) []string {
	if p.stop == nil {
		return terms(text, defaultStop, defaultMaxStop)
	}
	return terms(text, p.stop, p.maxStop)
}

func maxLen(set map[string]bool) int {
	n := 0
	for w := range set {
		n = max(n, len(w))
	}
	return n
}

// terms is the one tokenizer: a single pass over text that lower-cases
// each term into a reusable buffer and drops it when its lower-cased
// byte length is at most 1 or, after trailing apostrophes are trimmed,
// it is in stop. Only non-ASCII runes are decoded and classified. Each
// kept term is its own string: terms outlive the document (model
// vocabularies, sketches, drift counters), and slices of one shared
// buffer would pin the whole document.
func terms(text string, stop map[string]bool, maxStop int) []string {
	var (
		out     []string
		scratch [64]byte
		found   bool // a term was found, stop word or not
	)
	buf := scratch[:0]
	flush := func() {
		if len(buf) > 1 {
			found = true
			t := buf
			for t[len(t)-1] == '\'' {
				t = t[:len(t)-1]
			}
			if len(t) > maxStop || !stop[string(t)] {
				out = append(out, string(t))
			}
		}
		buf = buf[:0]
	}
	for i := 0; i < len(text); {
		c := text[i]
		if c < utf8.RuneSelf {
			i++
			switch {
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
				buf = append(buf, c)
			case 'A' <= c && c <= 'Z':
				buf = append(buf, c+('a'-'A'))
			case c == '\'': // keep possessives/contractions joined ("don't")
				if len(buf) > 0 {
					buf = append(buf, c)
				}
			default:
				flush()
			}
			continue
		}
		r, w := utf8.DecodeRuneInString(text[i:])
		i += w
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	if out == nil && found {
		// All terms were stop words: an empty, non-nil slice, which a
		// snapshot encodes as [] rather than null.
		return []string{}
	}
	return out
}

// Summarize merges the text content of all crawled pages of one
// pharmacy into a single summary document, the paper's summarization
// step. Pages are separated by a single space.
func Summarize(pages []string) string {
	return strings.Join(pages, " ")
}

// Subsample returns a random subset of k terms of the document (without
// replacement, preserving multiplicity semantics: positions are chosen
// uniformly). When k <= 0 or k >= len(terms) the original slice is
// returned unchanged, corresponding to the paper's "All" column.
func Subsample(terms []string, k int, rng *rand.Rand) []string {
	if k <= 0 || k >= len(terms) {
		return terms
	}
	idx := rng.Perm(len(terms))[:k]
	out := make([]string, k)
	for i, j := range idx {
		out[i] = terms[j]
	}
	return out
}

// SubsampleSizes are the term-subset sizes swept in the paper's
// experiments; 0 denotes "All".
var SubsampleSizes = []int{100, 250, 1000, 2000, 0}

// SizeLabel formats a subsample size the way the paper's tables do.
func SizeLabel(k int) string {
	if k == 0 {
		return "All"
	}
	return itoa(k)
}

func itoa(k int) string {
	if k == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for k > 0 {
		i--
		buf[i] = byte('0' + k%10)
		k /= 10
	}
	return string(buf[i:])
}
