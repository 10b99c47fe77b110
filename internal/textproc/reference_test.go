package textproc

import (
	"strings"
	"unicode"
)

// tokenizeReference is the builder-based tokenizer terms must reproduce
// exactly, including nil for text without terms.
func tokenizeReference(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 1 {
			tokens = append(tokens, b.String())
		}
		b.Reset()
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'': // keep possessives/contractions joined ("don't")
			if b.Len() > 0 {
				b.WriteRune(r)
			}
		default:
			flush()
		}
	}
	flush()
	// Trim trailing apostrophes left by the contraction rule.
	for i, t := range tokens {
		tokens[i] = strings.TrimRight(t, "'")
	}
	return tokens
}

// termsReference is Preprocessor.Terms as tokenize-then-filter over
// tokenizeReference.
func termsReference(text string, stop map[string]bool) []string {
	toks := tokenizeReference(text)
	out := toks[:0]
	for _, t := range toks {
		if !stop[t] {
			out = append(out, t)
		}
	}
	return out
}
