package webgen

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"pharmaverify/internal/parallel"
)

// worldsDiff compares two worlds site by site, page by page, including
// the unexported endpoint assignments that drive the link graph, and
// describes the first difference, or returns nil.
func worldsDiff(a, b *World) error {
	ad, bd := a.Domains(), b.Domains()
	if len(ad) != len(bd) {
		return fmt.Errorf("domain counts differ: %d vs %d", len(ad), len(bd))
	}
	for i, d := range ad {
		if bd[i] != d {
			return fmt.Errorf("domain[%d] = %q vs %q", i, d, bd[i])
		}
		sa, sb := a.Site(d), b.Site(d)
		if len(sa.Paths) != len(sb.Paths) {
			return fmt.Errorf("%s: path counts differ: %d vs %d", d, len(sa.Paths), len(sb.Paths))
		}
		for j, p := range sa.Paths {
			if sb.Paths[j] != p {
				return fmt.Errorf("%s: paths[%d] = %q vs %q", d, j, p, sb.Paths[j])
			}
			if sa.Pages[p] != sb.Pages[p] {
				return fmt.Errorf("%s%s: page bytes differ", d, p)
			}
		}
		if !slices.Equal(sa.externals, sb.externals) {
			return fmt.Errorf("%s: externals %q vs %q", d, sa.externals, sb.externals)
		}
	}
	return nil
}

// TestWorldsDiffDetectsDivergence exercises the comparator the identity
// checks rely on.
func TestWorldsDiffDetectsDivergence(t *testing.T) {
	cfg := Config{Seed: 7, Snapshot: 1, NumLegit: 4, NumIllegit: 20}
	a, b := Generate(cfg), Generate(cfg)
	if err := worldsDiff(a, b); err != nil {
		t.Fatalf("identical configurations generated different worlds: %v", err)
	}
	d := b.Domains()[0]
	b.Site(d).Pages[b.Site(d).Paths[0]] += "x"
	if worldsDiff(a, b) == nil {
		t.Fatal("mutated page not detected")
	}
	b = Generate(cfg)
	b.Site(d).externals = append(b.Site(d).externals, "http://www.extra.example/")
	if worldsDiff(a, b) == nil {
		t.Fatal("extra endpoint not detected")
	}
}

// TestGenerateMatchesReference is the generation kernel's bit-identity
// property: across randomized seeds, snapshots, drift knobs and worker
// counts, the pooled parallel Generate must reproduce the historical
// sequential GenerateReference byte for byte — pages, paths and
// endpoint assignments alike.
func TestGenerateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		cfg := Config{
			Seed:       rng.Int63n(1 << 40),
			Snapshot:   1 + trial%2,
			NumLegit:   4 + rng.Intn(8),
			NumIllegit: 20 + rng.Intn(30),
		}
		if cfg.Snapshot == 2 {
			cfg.VocabShift = rng.Float64() * 0.5
			cfg.LinkChurn = rng.Float64() * 0.3
		}
		if trial == 4 {
			cfg.BurstFraction = 0.3
			cfg.BurstCohortSize = 4
		}
		ref := GenerateReference(cfg)
		for _, workers := range []int{1, 2, 5} {
			prev := parallel.Default()
			parallel.SetDefault(workers)
			got := Generate(cfg)
			parallel.SetDefault(prev)
			if err := worldsDiff(ref, got); err != nil {
				t.Fatalf("trial %d, %d workers: %v", trial, workers, err)
			}
		}
	}
}

// TestRenderPageKernelAllocs pins the pooled render kernel's per-page
// cost: with a warm buffer, one page costs the final string plus at
// most the map-insert amortization — not the dozens of Builder/fmt
// intermediates the reference pays.
func TestRenderPageKernelAllocs(t *testing.T) {
	w, order := buildWorld(Config{Seed: 7, Snapshot: 1, NumLegit: 4, NumIllegit: 20}, (*World).assignExternals)
	s := w.sites[order[0]]
	rb := &renderBuf{page: make([]byte, 0, 1<<14)}
	w.renderSite(s, rb) // warm: buffer grown, paths cached

	allocs := testing.AllocsPerRun(20, func() {
		w.renderSite(s, rb)
	})
	pages := float64(len(s.Paths))
	// One string per page plus the site's fixed costs (rng + draw
	// hashes, path and external-link strings, the Pages map) come to
	// about 5 allocs/page; the Builder+fmt reference pays ~30/page.
	// Budget 6/page so the pin trips on a regression, not on noise.
	if allocs > pages*6 {
		t.Errorf("warm renderSite costs %.1f allocs for %d pages (> %d budget)", allocs, len(s.Paths), int(pages*6))
	}
}

// GenerateReference is Generate through the historical sequential
// paths: comparator-driven endpoint assignment and the
// strings.Builder+fmt renderer, one site at a time. It is the naive
// reference the generation kernels are pinned against.
func GenerateReference(cfg Config) *World {
	w, order := buildWorld(cfg, (*World).assignExternalsReference)
	for _, d := range order {
		w.renderSiteReference(w.sites[d])
	}
	return w
}

// assignExternalsReference is the historical endpoint assignment: the
// per-(site,endpoint) draw recomputed inside the sort comparator —
// every comparison paying two hasher+RNG constructions. It is the naive
// reference assignExternals is pinned against (the draws are distinct,
// so both sorts produce the same unique order).
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

// renderSiteReference generates all pages of a site through the
// historical strings.Builder+fmt renderer.
func (w *World) renderSiteReference(s *Site) {
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
		s.Pages[path] = w.renderPageReference(s, rng, m, paths, pi, externals)
	}
}

// renderPageReference produces the HTML of one page.
func (w *World) renderPageReference(s *Site, rng *rand.Rand, m mixture, paths []string, pi int, externals []string) string {
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
