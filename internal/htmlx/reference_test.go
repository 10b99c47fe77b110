package htmlx

import "strings"

// appendCollapsedReference is the strings.Fields collapse appendCollapsed
// must reproduce byte for byte.
func appendCollapsedReference(b *strings.Builder, s string) {
	for _, f := range strings.Fields(s) {
		if b.Len() > 0 {
			if str := b.String(); str[len(str)-1] != ' ' {
				b.WriteByte(' ')
			}
		}
		b.WriteString(f)
	}
	if len(s) > 0 {
		last := s[len(s)-1]
		if last == ' ' || last == '\n' || last == '\t' || last == '\r' {
			if l := b.Len(); l > 0 && b.String()[l-1] != ' ' {
				b.WriteByte(' ')
			}
		}
	}
}

// parseReference is Parse as it was over the reference collapse and
// the reference tag split: the same scanner, entity decoding and tag
// handling.
func parseReference(src string) Page {
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
				appendCollapsedReference(&title, decoded)
			}
			appendCollapsedReference(&text, decoded)
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

		name, attrs, closing := splitTagReference(tag)
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

// splitTagReference is splitTag as three strings passes: trim, find
// the first separator, lower-case the name.
func splitTagReference(tag string) (name, attrs string, closing bool) {
	tag = strings.TrimSpace(tag)
	if strings.HasPrefix(tag, "/") {
		closing = true
		tag = strings.TrimSpace(tag[1:])
	}
	sp := strings.IndexAny(tag, " \t\r\n")
	if sp < 0 {
		name = tag
	} else {
		name = tag[:sp]
		attrs = tag[sp+1:]
	}
	name = strings.TrimSuffix(strings.ToLower(name), "/")
	return name, attrs, closing
}
