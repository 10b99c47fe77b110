package webgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// mixture describes the sampling weights over the four word pools.
type mixture struct {
	common, legit, illegit, drugs float64
}

// textMixture returns the word-pool mixture for a site, encoding the
// class signal (and its six-month drift for Snapshot 2, where
// illegitimate sites shift toward legitimate vocabulary to evade
// text-based detection, degrading the legitimate precision of stale
// models as observed in Table 17).
// legitMixture is the regular legitimate word-pool mixture; VocabShift
// interpolates drifted illegitimate sites toward it.
var legitMixture = mixture{common: 0.57, legit: 0.28, illegit: 0.05, drugs: 0.10}

func (w *World) textMixture(s *Site) mixture {
	drift := w.cfg.Snapshot >= 2
	roleID := templateID(s)
	var m mixture
	switch {
	case s.Legitimate && s.Isolated:
		// New-prescription sellers: still legitimate text, slightly more
		// product-heavy.
		m = mixture{common: 0.52, legit: 0.27, illegit: 0.06, drugs: 0.15}
	case s.Legitimate:
		m = legitMixture
	case s.Evader:
		// Imitators blend in: mostly legitimate-looking vocabulary.
		m = mixture{common: 0.50, legit: 0.22, illegit: 0.16, drugs: 0.12}
	case drift:
		// Six months on, illegitimate operators have drifted: all of
		// them blend in somewhat more legitimate vocabulary, and a
		// "cleaned-up" subset imitates legitimate storefront language
		// aggressively. Stale models lose legitimate precision on these
		// (Table 17) while the classes remain separable enough that AUC
		// holds (Table 16).
		if roleDraw(w.cfg.Seed, roleID, "cleaned") < 0.18 {
			m = mixture{common: 0.50, legit: 0.22, illegit: 0.14, drugs: 0.14}
		} else {
			m = mixture{common: 0.44, legit: 0.13, illegit: 0.31, drugs: 0.12}
		}
	default:
		m = mixture{common: 0.43, legit: 0.09, illegit: 0.36, drugs: 0.12}
	}
	if !s.Legitimate && drift && w.cfg.VocabShift > 0 {
		// Epoch-scale restyling: pull the mixture toward legitimate
		// storefront language by the configured fraction.
		f := w.cfg.VocabShift
		m.common += f * (legitMixture.common - m.common)
		m.legit += f * (legitMixture.legit - m.legit)
		m.illegit += f * (legitMixture.illegit - m.illegit)
		m.drugs += f * (legitMixture.drugs - m.drugs)
	}
	// Per-site signal jitter: real storefronts vary in how loudly they
	// carry their class vocabulary. A stable per-site factor scales the
	// class-signal pools (legitimate sites legitimately discuss ED
	// medication; some spam shops barely use spam language), keeping
	// the learned boundaries imperfect as in the paper's numbers.
	jitter := 0.5 + roleDraw(w.cfg.Seed, roleID, "signal")
	if s.Legitimate {
		m.legit *= jitter
		m.common += (1 - jitter) * 0.2
	} else {
		m.illegit *= jitter
		m.common += (1 - jitter) * 0.2
	}
	if m.common < 0.1 {
		m.common = 0.1
	}
	return m
}

func sampleWord(rng *rand.Rand, m mixture) string {
	r := rng.Float64() * (m.common + m.legit + m.illegit + m.drugs)
	switch {
	case r < m.common:
		return commonWords[rng.Intn(len(commonWords))]
	case r < m.common+m.legit:
		return legitWords[rng.Intn(len(legitWords))]
	case r < m.common+m.legit+m.illegit:
		return illegitWords[rng.Intn(len(illegitWords))]
	default:
		return drugNames[rng.Intn(len(drugNames))]
	}
}

// externalLinks decides which well-known endpoints a site links to.
func (w *World) externalLinks(s *Site, rng *rand.Rand) []string {
	var links []string
	add := func(domain string) { links = append(links, "http://www."+domain+"/") }

	switch {
	case s.Isolated && s.Legitimate:
		// Network-isolated legitimate outliers: only site-specific niche
		// endpoints, shared with nobody, so no trust can flow to them.
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			base := strings.SplitN(s.Domain, ".", 2)[0]
			add(fmt.Sprintf("%s-%s.example", isolatedEndpoints[rng.Intn(len(isolatedEndpoints))], base))
		}
	case s.Evader:
		// Evaders imitate the legitimate linking profile, thinly.
		for _, ep := range legitEndpoints {
			if rng.Float64() < ep.P*0.5 {
				add(ep.Domain)
			}
		}
	default:
		// Regular legitimate and illegitimate sites use the exact-count
		// endpoint assignment computed by assignExternals.
		links = append(links, s.externals...)
		if s.HubDomain != "" {
			// Affiliate link to the network hub (counted several times:
			// member sites plaster hub banners on most pages).
			links = append(links, "http://"+s.HubDomain+"/aff?src="+s.Domain)
		}
	}
	return links
}

// templateID is the identity a site's template randomness keys on:
// burst-cohort members share the cohort's identity (one campaign, one
// template), everyone else keys on their own domain.
func templateID(s *Site) string {
	if s.Burst {
		return fmt.Sprintf("burst-cohort|%d", s.BurstCohort)
	}
	return s.Domain
}

// The render kernel: pages are built by direct appends into a reusable
// per-worker buffer instead of strings.Builder and fmt (%q on a link is
// strconv.AppendQuote, which is fmt's own string quoting), and
// paragraphs append into the page buffer instead of materializing
// intermediate strings. Every RNG draw happens in the same order and
// under the same short-circuit conditions as in the historical
// Builder+fmt renderer (reference_test.go), and
// TestGenerateMatchesReference pins the two byte-identical across
// seeds, drift knobs and worker counts.

// renderBuf is one worker's render scratch: the page byte buffer and
// the path list survive across the sites of a chunk, so a warm buffer
// allocates nothing per page beyond the final string.
type renderBuf struct {
	page  []byte
	paths []string
}

var renderBufPool = sync.Pool{New: func() any { return &renderBuf{page: make([]byte, 0, 4096)} }}

// renderSite generates all pages of a site into s.Pages and s.Paths.
func (w *World) renderSite(s *Site, rb *renderBuf) {
	cfg := w.cfg
	rng := siteRNG(cfg.Seed, cfg.Snapshot, templateID(s), "site")
	m := w.textMixture(s)

	nPages := cfg.MinPages + rng.Intn(cfg.MaxPages-cfg.MinPages+1)
	paths := append(rb.paths[:0], "/", "/about", "/contact")
	for i := 0; len(paths) < nPages; i++ {
		if s.Legitimate && i%3 == 2 {
			paths = append(paths, "/health/"+strconv.Itoa(i))
		} else {
			paths = append(paths, "/products/"+strconv.Itoa(i))
		}
	}
	rb.paths = paths

	externals := w.externalLinks(s, rng)

	s.Pages = make(map[string]string, len(paths))
	s.Paths = append([]string(nil), paths...)
	for pi, path := range paths {
		s.Pages[path] = w.renderPage(s, rng, m, paths, pi, externals, rb)
	}
}

// renderPage produces the HTML of one page, appended into the worker's
// reused buffer; the returned string is the only per-page allocation
// once the buffer is warm.
func (w *World) renderPage(s *Site, rng *rand.Rand, m mixture, paths []string, pi int, externals []string, rb *renderBuf) string {
	cfg := w.cfg
	path := paths[pi]
	b := rb.page[:0]

	b = append(b, "<html><head><title>"...)
	b = appendPageTitle(b, s, path)
	b = append(b, "</title></head><body>\n<h1>"...)
	b = appendPageTitle(b, s, path)
	b = append(b, "</h1>\n"...)

	// Navigation: the front page links to every page; inner pages link
	// home and to the next page so breadth-first crawls reach everything.
	b = append(b, "<div class=\"nav\">\n"...)
	if path == "/" {
		for _, p := range paths[1:] {
			b = append(b, "<a href="...)
			b = strconv.AppendQuote(b, p)
			b = append(b, '>')
			b = append(b, strings.Trim(p, "/")...)
			b = append(b, "</a>\n"...)
		}
	} else {
		b = append(b, "<a href=\"/\">home</a>\n<a href="...)
		b = strconv.AppendQuote(b, paths[(pi+1)%len(paths)])
		b = append(b, ">next</a>\n"...)
	}
	b = append(b, "</div>\n"...)

	// Trust seals: legitimate pharmacies display verification seals,
	// one of the store-presence signals from the paper's related work.
	if s.Legitimate && (path == "/" || path == "/about") {
		b = append(b, "<div class=\"seal\">VIPPS accredited pharmacy — verified by NABP. Licensed pharmacist consultation available. Valid prescription required.</div>\n"...)
	}
	if !s.Legitimate && !s.Evader && (path == "/" || strings.HasPrefix(path, "/products")) {
		b = append(b, "<div class=\"banner\">Cheap generic viagra cialis — no prescription needed! Worldwide discreet overnight shipping. Bonus pills with every order.</div>\n"...)
	}

	// Body paragraphs.
	words := cfg.MinWords + rng.Intn(cfg.MaxWords-cfg.MinWords+1)
	nPar := 2 + rng.Intn(3)
	for i := 0; i < nPar; i++ {
		b = append(b, "<p>"...)
		b = appendParagraph(b, rng, m, words/nPar)
		b = append(b, "</p>\n"...)
	}

	// External links: spread across pages; the front page always gets
	// the first few so even shallow crawls observe them.
	b = append(b, "<div class=\"links\">\n"...)
	for i, l := range externals {
		onFront := i < 4
		if (path == "/" && onFront) || (!onFront && i%len(paths) == pi) || rng.Float64() < 0.15 {
			b = append(b, "<a href="...)
			b = strconv.AppendQuote(b, l)
			b = append(b, ">partner</a>\n"...)
		}
	}
	b = append(b, "</div>\n<div class=\"footer\">&copy; "...)
	b = append(b, s.Domain...)
	b = append(b, "</div>\n</body></html>\n"...)

	rb.page = b // keep the grown capacity for the next page
	return string(b)
}

// appendParagraph renders n words as sentence-like chunks, appending
// into the page buffer.
func appendParagraph(b []byte, rng *rand.Rand, m mixture, n int) []byte {
	for i := 0; i < n; i++ {
		if i > 0 {
			if i%11 == 10 {
				b = append(b, ". "...)
			} else {
				b = append(b, ' ')
			}
		}
		b = append(b, sampleWord(rng, m)...)
	}
	return append(b, '.')
}

// appendPageTitle appends the title of the page at path.
func appendPageTitle(b []byte, s *Site, path string) []byte {
	base := strings.SplitN(s.Domain, ".", 2)[0]
	switch {
	case path == "/":
		b = append(b, base...)
		if s.Legitimate {
			return append(b, " — your trusted licensed pharmacy"...)
		}
		return append(b, " — cheap meds online"...)
	case path == "/about":
		b = append(b, "About "...)
		return append(b, base...)
	case path == "/contact":
		b = append(b, "Contact "...)
		return append(b, base...)
	case strings.HasPrefix(path, "/health/"):
		b = append(b, base...)
		return append(b, " health information"...)
	default:
		b = append(b, base...)
		return append(b, " products"...)
	}
}

// Summary concatenates the visible-text-bearing HTML of all pages of a
// site (primarily for tests and examples; the crawler pipeline extracts
// text per page with htmlx).
func (s *Site) Summary() string {
	var b strings.Builder
	for _, p := range s.Paths {
		b.WriteString(s.Pages[p])
		b.WriteByte('\n')
	}
	return b.String()
}

// Stats summarizes a generated world (counts per class/role), used by
// the Table 1 reproduction.
type Stats struct {
	Total, Legit, Illegit   int
	Hubs, Isolated, Evaders int
	Pages                   int
}

// Stats computes world statistics.
func (w *World) Stats() Stats {
	var st Stats
	for _, d := range w.domains {
		s := w.sites[d]
		st.Total++
		st.Pages += len(s.Paths)
		if s.Legitimate {
			st.Legit++
		} else {
			st.Illegit++
		}
		if s.Hub {
			st.Hubs++
		}
		if s.Isolated {
			st.Isolated++
		}
		if s.Evader {
			st.Evaders++
		}
	}
	return st
}

// HubDomains lists the affiliate-network hub domains, sorted.
func (w *World) HubDomains() []string {
	var hubs []string
	for _, d := range w.domains {
		if w.sites[d].Hub {
			hubs = append(hubs, d)
		}
	}
	sort.Strings(hubs)
	return hubs
}
