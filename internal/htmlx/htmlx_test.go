package htmlx

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasicDocument(t *testing.T) {
	src := `<html><head><title>Acme Pharmacy</title></head>
<body><h1>Welcome</h1><p>Buy safe medicine with a valid prescription.</p>
<a href="https://www.fda.gov/page">FDA</a>
<a href='http://twitter.com/acme'>Twitter</a></body></html>`
	p := Parse(src)
	if p.Title != "Acme Pharmacy" {
		t.Errorf("Title = %q, want %q", p.Title, "Acme Pharmacy")
	}
	for _, want := range []string{"Welcome", "Buy safe medicine", "FDA", "Twitter"} {
		if !strings.Contains(p.Text, want) {
			t.Errorf("Text %q missing %q", p.Text, want)
		}
	}
	wantLinks := []string{"https://www.fda.gov/page", "http://twitter.com/acme"}
	if !reflect.DeepEqual(p.Links, wantLinks) {
		t.Errorf("Links = %v, want %v", p.Links, wantLinks)
	}
}

func TestParseSkipsScriptAndStyle(t *testing.T) {
	src := `<p>visible</p><script>var hidden = "secret";</script><style>.x{color:red}</style><p>also visible</p>`
	p := Parse(src)
	if strings.Contains(p.Text, "secret") || strings.Contains(p.Text, "color") {
		t.Errorf("script/style content leaked into text: %q", p.Text)
	}
	if !strings.Contains(p.Text, "visible") || !strings.Contains(p.Text, "also visible") {
		t.Errorf("visible text missing: %q", p.Text)
	}
}

func TestParseSkipsComments(t *testing.T) {
	p := Parse(`<p>a</p><!-- hidden <a href="http://x.com">x</a> --><p>b</p>`)
	if strings.Contains(p.Text, "hidden") {
		t.Errorf("comment text leaked: %q", p.Text)
	}
	if len(p.Links) != 0 {
		t.Errorf("links inside comments must be ignored, got %v", p.Links)
	}
}

func TestParseCollapsesWhitespace(t *testing.T) {
	p := Parse("<p>  a \n\n  b\t c  </p>")
	if p.Text != "a b c" {
		t.Errorf("Text = %q, want %q", p.Text, "a b c")
	}
	// U+00A0 and U+0085 separate words too, as in strings.Fields.
	p = Parse("<p>a\u00a0b\u0085c\u00a0</p>d")
	if p.Text != "a b c d" {
		t.Errorf("Text = %q, want %q", p.Text, "a b c d")
	}
}

func TestParseEntitiesInText(t *testing.T) {
	p := Parse(`<p>Fish &amp; Chips &lt;cheap&gt; &#65;&#x42;</p>`)
	if p.Text != "Fish & Chips <cheap> AB" {
		t.Errorf("Text = %q", p.Text)
	}
}

func TestParseAnchorWithoutHref(t *testing.T) {
	p := Parse(`<a name="top">anchor</a><a href="">empty</a><a href="/x">ok</a>`)
	if !reflect.DeepEqual(p.Links, []string{"/x"}) {
		t.Errorf("Links = %v, want [/x]", p.Links)
	}
}

func TestParseUnterminatedTag(t *testing.T) {
	p := Parse(`<p>ok</p><a href="http://x.com`)
	if !strings.Contains(p.Text, "ok") {
		t.Errorf("text before broken tag lost: %q", p.Text)
	}
}

func TestParseBlockTagsSeparateWords(t *testing.T) {
	p := Parse(`<div>alpha</div><div>beta</div>`)
	if p.Text != "alpha beta" {
		t.Errorf("Text = %q, want %q", p.Text, "alpha beta")
	}
}

func TestParseSelfClosingScript(t *testing.T) {
	p := Parse(`<script src="x.js"/><p>after</p>`)
	if !strings.Contains(p.Text, "after") {
		t.Errorf("self-closing script swallowed document: %q", p.Text)
	}
}

func TestParseCaseInsensitiveTags(t *testing.T) {
	p := Parse(`<A HREF="http://upper.example.com">X</A><SCRIPT>nope</SCRIPT>`)
	if !reflect.DeepEqual(p.Links, []string{"http://upper.example.com"}) {
		t.Errorf("Links = %v", p.Links)
	}
	if strings.Contains(p.Text, "nope") {
		t.Errorf("uppercase SCRIPT content leaked: %q", p.Text)
	}
}

func TestAttrValue(t *testing.T) {
	cases := []struct {
		attrs, name, want string
		ok                bool
	}{
		{`href="a"`, "href", "a", true},
		{`href='a b'`, "href", "a b", true},
		{`href=a`, "href", "a", true},
		{`class="x" href="y"`, "href", "y", true},
		{`HREF="y"`, "href", "y", true},
		{`rel=nofollow`, "href", "", false},
		{`href="a&amp;b"`, "href", "a&b", true},
		{``, "href", "", false},
		{`disabled href="z"`, "href", "z", true},
	}
	for _, c := range cases {
		got, ok := attrValue(c.attrs, c.name)
		if got != c.want || ok != c.ok {
			t.Errorf("attrValue(%q, %q) = %q,%v want %q,%v", c.attrs, c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestDecodeEntitiesNoEntity(t *testing.T) {
	s := "plain text without refs"
	if got := DecodeEntities(s); got != s {
		t.Errorf("DecodeEntities changed plain text: %q", got)
	}
}

func TestDecodeEntitiesUnknownKeptVerbatim(t *testing.T) {
	if got := DecodeEntities("&bogus; &"); got != "&bogus; &" {
		t.Errorf("got %q", got)
	}
}

func TestDecodeEntitiesNumericOverflow(t *testing.T) {
	if got := DecodeEntities("&#99999999;"); got != "&#99999999;" {
		t.Errorf("overflowing numeric ref must be kept, got %q", got)
	}
}

func TestSplitTag(t *testing.T) {
	cases := []struct {
		in, name, attrs string
		closing         bool
	}{
		{"a href=x", "a", "href=x", false},
		{"/div", "div", "", true},
		{"BR/", "br", "", false},
		{"  /  span ", "span", "", true},
	}
	for _, c := range cases {
		name, attrs, closing := splitTag(c.in)
		if name != c.name || closing != c.closing {
			t.Errorf("splitTag(%q) = %q,%q,%v want %q,%q,%v", c.in, name, attrs, closing, c.name, c.attrs, c.closing)
		}
	}
}

// Property: Parse never panics and never returns text containing a '<'
// for any input, well-formed or not.
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		p := Parse(s)
		return !strings.Contains(p.Text, "<")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: DecodeEntities is idempotent on entity-free strings and the
// output never contains a decodable named reference we support.
func TestDecodeEntitiesIdempotentOnPlain(t *testing.T) {
	f := func(s string) bool {
		s = strings.ReplaceAll(s, "&", "")
		return DecodeEntities(s) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzParse checks that Parse never panics and returns exactly what the
// scanner returns over the strings.Fields collapse and the strings-pass
// tag split, and that splitTag matches its reference on the raw input.
// Seeds are in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		got, want := Parse(src), parseReference(src)
		if got.Title != want.Title || got.Text != want.Text || !reflect.DeepEqual(got.Links, want.Links) {
			t.Fatalf("Parse(%q) = %#v, want %#v", src, got, want)
		}
		name, attrs, closing := splitTag(src)
		wantName, wantAttrs, wantClosing := splitTagReference(src)
		if name != wantName || attrs != wantAttrs || closing != wantClosing {
			t.Fatalf("splitTag(%q) = %q, %q, %v, want %q, %q, %v", src, name, attrs, closing, wantName, wantAttrs, wantClosing)
		}
	})
}

// benchPage is a storefront page of 200 identical blocks, with a title.
var benchPage = "<html><head><title>Acme  Pharmacy\n</title></head><body>" +
	strings.Repeat(`<div><p>generic cialis viagra  no prescription
	required</p><a href="http://hub.example.com/aff">order now</a></div>`, 200) +
	"</body></html>"

// TestParseAllocations pins Parse's allocation budget on benchPage: the
// text buffer, two growth steps of the title's builder ("Acme", then
// "Acme Pharmacy") and the growth steps of the links slice. No
// allocation scales with the number of text chunks.
func TestParseAllocations(t *testing.T) {
	links := len(Parse(benchPage).Links)
	var grown []string
	growths := 0
	for i := 0; i < links; i++ {
		if len(grown) == cap(grown) {
			growths++
		}
		grown = append(grown, "")
	}
	allocs := testing.AllocsPerRun(20, func() { pageSink = Parse(benchPage) })
	if limit := float64(3 + growths); allocs > limit {
		t.Errorf("Parse allocates %.0f times on a page with %d links, want <= %.0f", allocs, links, limit)
	}
}

var pageSink Page

func BenchmarkParse(b *testing.B) {
	b.SetBytes(int64(len(benchPage)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pageSink = Parse(benchPage)
	}
}
