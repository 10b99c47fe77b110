package webgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
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

// paragraph renders n words as sentence-like chunks.
func paragraph(rng *rand.Rand, m mixture, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			if i%11 == 10 {
				b.WriteString(". ")
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteString(sampleWord(rng, m))
	}
	b.WriteByte('.')
	return b.String()
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

// assignExternalsReference is the historical endpoint assignment: the
// per-(site,endpoint) draw recomputed inside the sort comparator —
// every comparison paying two hasher+RNG constructions. Kept verbatim
// as the naive reference assignExternals is pinned against (the draws
// are distinct, so both sorts produce the same unique order).
func (w *World) assignExternalsReference() {
	var legitSites, illegitSites []*Site
	for _, d := range w.domains {
		s := w.sites[d]
		switch {
		case s.Legitimate && !s.Isolated:
			legitSites = append(legitSites, s)
		case !s.Legitimate && !s.Evader:
			illegitSites = append(illegitSites, s)
		}
	}
	assign := func(sites []*Site, ep weightedEndpoint) {
		k := int(ep.P*float64(len(sites)) + 0.5)
		if k <= 0 {
			return
		}
		order := make([]*Site, len(sites))
		copy(order, sites)
		sort.Slice(order, func(i, j int) bool {
			return roleDrawReference(w.cfg.Seed, order[i].Domain, "ep|"+ep.Domain) <
				roleDrawReference(w.cfg.Seed, order[j].Domain, "ep|"+ep.Domain)
		})
		if k > len(order) {
			k = len(order)
		}
		for _, s := range order[:k] {
			s.externals = append(s.externals, "http://www."+ep.Domain+"/")
		}
	}
	for _, ep := range legitEndpoints {
		assign(legitSites, ep)
	}
	for _, ep := range illegitEndpoints {
		assign(illegitSites, ep)
	}
	for _, ep := range legitEndpoints[:5] {
		assign(illegitSites, weightedEndpoint{Domain: ep.Domain, P: 0.12})
	}
}

// renderSite generates all pages of a site.
func (w *World) renderSite(s *Site) {
	cfg := w.cfg
	rng := siteRNG(cfg.Seed, cfg.Snapshot, templateID(s), "site")
	m := w.textMixture(s)

	nPages := cfg.MinPages + rng.Intn(cfg.MaxPages-cfg.MinPages+1)
	paths := []string{"/", "/about", "/contact"}
	for i := 0; len(paths) < nPages; i++ {
		if s.Legitimate && i%3 == 2 {
			paths = append(paths, fmt.Sprintf("/health/%d", i))
		} else {
			paths = append(paths, fmt.Sprintf("/products/%d", i))
		}
	}

	externals := w.externalLinks(s, rng)

	s.Pages = make(map[string]string, len(paths))
	s.Paths = append([]string(nil), paths...)
	for pi, path := range paths {
		s.Pages[path] = w.renderPage(s, rng, m, paths, pi, externals)
	}
}

// renderPage produces the HTML of one page.
func (w *World) renderPage(s *Site, rng *rand.Rand, m mixture, paths []string, pi int, externals []string) string {
	cfg := w.cfg
	path := paths[pi]
	var b strings.Builder
	b.Grow(4096)

	title := pageTitle(s, path)
	b.WriteString("<html><head><title>")
	b.WriteString(title)
	b.WriteString("</title></head><body>\n")
	b.WriteString("<h1>" + title + "</h1>\n")

	// Navigation: the front page links to every page; inner pages link
	// home and to the next page so breadth-first crawls reach everything.
	b.WriteString("<div class=\"nav\">\n")
	if path == "/" {
		for _, p := range paths[1:] {
			fmt.Fprintf(&b, "<a href=%q>%s</a>\n", p, strings.Trim(p, "/"))
		}
	} else {
		b.WriteString("<a href=\"/\">home</a>\n")
		fmt.Fprintf(&b, "<a href=%q>next</a>\n", paths[(pi+1)%len(paths)])
	}
	b.WriteString("</div>\n")

	// Trust seals: legitimate pharmacies display verification seals,
	// one of the store-presence signals from the paper's related work.
	if s.Legitimate && (path == "/" || path == "/about") {
		b.WriteString("<div class=\"seal\">VIPPS accredited pharmacy — verified by NABP. Licensed pharmacist consultation available. Valid prescription required.</div>\n")
	}
	if !s.Legitimate && !s.Evader && (path == "/" || strings.HasPrefix(path, "/products")) {
		b.WriteString("<div class=\"banner\">Cheap generic viagra cialis — no prescription needed! Worldwide discreet overnight shipping. Bonus pills with every order.</div>\n")
	}

	// Body paragraphs.
	words := cfg.MinWords + rng.Intn(cfg.MaxWords-cfg.MinWords+1)
	nPar := 2 + rng.Intn(3)
	for i := 0; i < nPar; i++ {
		b.WriteString("<p>")
		b.WriteString(paragraph(rng, m, words/nPar))
		b.WriteString("</p>\n")
	}

	// External links: spread across pages; the front page always gets
	// the first few so even shallow crawls observe them.
	b.WriteString("<div class=\"links\">\n")
	for i, l := range externals {
		onFront := i < 4
		if (path == "/" && onFront) || (!onFront && i%len(paths) == pi) || rng.Float64() < 0.15 {
			fmt.Fprintf(&b, "<a href=%q>partner</a>\n", l)
		}
	}
	b.WriteString("</div>\n")

	fmt.Fprintf(&b, "<div class=\"footer\">&copy; %s</div>\n", s.Domain)
	b.WriteString("</body></html>\n")
	return b.String()
}

func pageTitle(s *Site, path string) string {
	base := strings.SplitN(s.Domain, ".", 2)[0]
	switch {
	case path == "/":
		if s.Legitimate {
			return base + " — your trusted licensed pharmacy"
		}
		return base + " — cheap meds online"
	case path == "/about":
		return "About " + base
	case path == "/contact":
		return "Contact " + base
	case strings.HasPrefix(path, "/health/"):
		return base + " health information"
	default:
		return base + " products"
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
