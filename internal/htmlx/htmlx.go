// Package htmlx implements a small, dependency-free HTML scanner used to
// extract visible text and hyperlinks from crawled pharmacy pages.
//
// The package intentionally does not build a DOM: the verification
// pipeline only needs (a) the visible text of a page for the text models
// and (b) the anchor targets for the link graph (Algorithm 1 in the
// paper). A single forward pass with a small state machine covers both,
// is allocation-light, and tolerates the malformed markup that is common
// on illegitimate storefronts.
package htmlx

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Page is the parsed form of one HTML document.
type Page struct {
	// Title is the contents of the first <title> element, if any.
	Title string
	// Text is the visible text with tags stripped, script/style bodies
	// removed, entities decoded, and runs of whitespace collapsed.
	Text string
	// Links are the raw href values of <a> elements, in document order.
	Links []string
}

// Parse scans an HTML document and returns its visible text and links.
func Parse(src string) Page {
	var (
		text  strings.Builder
		title strings.Builder
		links []string
	)
	text.Grow(len(src) / 2)

	i := 0
	n := len(src)
	skipUntil := "" // closing tag that ends a raw-text element (script/style)
	inTitle := false

	flushSpace := func(b *strings.Builder) {
		if l := b.Len(); l > 0 && b.String()[l-1] != ' ' {
			b.WriteByte(' ')
		}
	}

	for i < n {
		c := src[i]
		if c != '<' {
			// Text content.
			j := strings.IndexByte(src[i:], '<')
			var chunk string
			if j < 0 {
				chunk = src[i:]
				i = n
			} else {
				chunk = src[i : i+j]
				i += j
			}
			if skipUntil != "" {
				continue
			}
			decoded := DecodeEntities(chunk)
			if inTitle {
				appendCollapsed(&title, decoded)
			}
			appendCollapsed(&text, decoded)
			continue
		}

		// A tag, comment, or declaration starts here.
		if strings.HasPrefix(src[i:], "<!--") {
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				break
			}
			i += 4 + end + 3
			continue
		}
		tagEnd := strings.IndexByte(src[i:], '>')
		if tagEnd < 0 {
			break
		}
		tag := src[i+1 : i+tagEnd]
		i += tagEnd + 1

		name, attrs, closing := splitTag(tag)
		if skipUntil != "" {
			if closing && name == skipUntil {
				skipUntil = ""
			}
			continue
		}
		switch name {
		case "script", "style", "noscript":
			if !closing && !strings.HasSuffix(tag, "/") {
				skipUntil = name
			}
		case "title":
			inTitle = !closing
		case "a":
			if !closing {
				if href, ok := attrValue(attrs, "href"); ok && href != "" {
					links = append(links, href)
				}
			}
		case "br", "p", "div", "li", "tr", "td", "th", "h1", "h2", "h3", "h4", "h5", "h6":
			flushSpace(&text)
		}
	}

	return Page{
		Title: strings.TrimSpace(title.String()),
		Text:  strings.TrimSpace(text.String()),
		Links: links,
	}
}

// appendCollapsed writes s to b, collapsing any whitespace run into a
// single space and avoiding duplicated separators across chunks.
//
// Fields are split exactly where strings.Fields splits them: on the
// ASCII bytes of asciiSpace and on every rune unicode.IsSpace accepts,
// so U+0085 and U+00A0 separate words too. Invalid UTF-8 decodes to
// U+FFFD, which is not a space. The trailing separator, by contrast,
// looks only at ' ', '\n', '\t' and '\r'.
func appendCollapsed(b *strings.Builder, s string) {
	n := len(s)
	i := 0
	for {
		// Skip a whitespace run.
		for i < n {
			if c := s[i]; c < utf8.RuneSelf {
				if !asciiSpace[c] {
					break
				}
				i++
			} else if space, w := decodeSpace(s, i); space {
				i += w
			} else {
				break
			}
		}
		if i == n {
			break
		}
		// Copy the field up to the next whitespace rune. A single ' '
		// followed by ASCII text is already collapsed, so the span runs
		// on through it and is written in one piece.
		start := i
		for i < n {
			if c := s[i]; c < utf8.RuneSelf {
				if asciiSpace[c] {
					if c == ' ' && i+1 < n && s[i+1] < utf8.RuneSelf && !asciiSpace[s[i+1]] {
						i += 2
						continue
					}
					break
				}
				i++
			} else if space, w := decodeSpace(s, i); space {
				break
			} else {
				i += w
			}
		}
		if l := b.Len(); l > 0 && b.String()[l-1] != ' ' {
			b.WriteByte(' ')
		}
		b.WriteString(s[start:i])
	}
	if n > 0 {
		last := s[n-1]
		if last == ' ' || last == '\n' || last == '\t' || last == '\r' {
			if l := b.Len(); l > 0 && b.String()[l-1] != ' ' {
				b.WriteByte(' ')
			}
		}
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// decodeSpace decodes the non-ASCII rune starting at s[i] and reports
// whether it is white space, and its width in bytes.
func decodeSpace(s string, i int) (bool, int) {
	r, w := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), w
}

// splitTag separates a raw tag body ("a href=x", "/div") into the
// lower-case element name, its attribute substring, and whether it is a
// closing tag. After trimming (white space as strings.TrimSpace
// defines it), one byte scan finds the end of the name and notes
// whether it needs lower-casing, which only an upper-case or
// non-ASCII byte can require.
func splitTag(tag string) (name, attrs string, closing bool) {
	tag = strings.TrimSpace(tag)
	if len(tag) > 0 && tag[0] == '/' {
		closing = true
		tag = strings.TrimSpace(tag[1:])
	}
	name = tag
	lower := true
	for i := 0; i < len(tag); i++ {
		c := tag[i]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			name, attrs = tag[:i], tag[i+1:]
			break
		}
		if 'A' <= c && c <= 'Z' || c >= utf8.RuneSelf {
			lower = false
		}
	}
	if !lower {
		name = strings.ToLower(name)
	}
	return strings.TrimSuffix(name, "/"), attrs, closing
}

// attrValue extracts the value of the named attribute from a tag's
// attribute substring. Values may be double-quoted, single-quoted, or
// bare. Attribute names are matched case-insensitively.
func attrValue(attrs, name string) (string, bool) {
	i := 0
	n := len(attrs)
	for i < n {
		// Skip whitespace.
		for i < n && isSpace(attrs[i]) {
			i++
		}
		start := i
		for i < n && attrs[i] != '=' && !isSpace(attrs[i]) {
			i++
		}
		key := attrs[start:i]
		for i < n && isSpace(attrs[i]) {
			i++
		}
		var val string
		if i < n && attrs[i] == '=' {
			i++
			for i < n && isSpace(attrs[i]) {
				i++
			}
			if i < n && (attrs[i] == '"' || attrs[i] == '\'') {
				q := attrs[i]
				i++
				vstart := i
				for i < n && attrs[i] != q {
					i++
				}
				val = attrs[vstart:i]
				if i < n {
					i++
				}
			} else {
				vstart := i
				for i < n && !isSpace(attrs[i]) {
					i++
				}
				val = attrs[vstart:i]
			}
		}
		if strings.EqualFold(key, name) {
			return DecodeEntities(val), true
		}
	}
	return "", false
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// entities maps the named character references that occur in generated
// and real-world storefront pages. Numeric references are handled
// separately by DecodeEntities.
var entities = map[string]string{
	"amp":    "&",
	"lt":     "<",
	"gt":     ">",
	"quot":   `"`,
	"apos":   "'",
	"nbsp":   " ",
	"copy":   "©",
	"reg":    "®",
	"trade":  "™",
	"mdash":  "—",
	"ndash":  "–",
	"hellip": "…",
	"middot": "·",
	"bull":   "•",
}

// DecodeEntities replaces named and numeric HTML character references in
// s with their literal characters. Unknown references are kept verbatim.
func DecodeEntities(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:amp])
	i := amp
	for i < len(s) {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 12 {
			b.WriteByte(c)
			i++
			continue
		}
		ref := s[i+1 : i+semi]
		if rep, ok := entities[ref]; ok {
			b.WriteString(rep)
			i += semi + 1
			continue
		}
		if r, ok := decodeNumericRef(ref); ok {
			b.WriteRune(r)
			i += semi + 1
			continue
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

func decodeNumericRef(ref string) (rune, bool) {
	if len(ref) < 2 || ref[0] != '#' {
		return 0, false
	}
	body := ref[1:]
	base := 10
	if body[0] == 'x' || body[0] == 'X' {
		base = 16
		body = body[1:]
		if body == "" {
			return 0, false
		}
	}
	var v int64
	for i := 0; i < len(body); i++ {
		d := digitVal(body[i])
		if d < 0 || d >= base {
			return 0, false
		}
		v = v*int64(base) + int64(d)
		if v > 0x10FFFF {
			return 0, false
		}
	}
	return rune(v), true
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}
