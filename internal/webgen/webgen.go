// Package webgen generates a deterministic synthetic web of online
// pharmacies. It substitutes for the proprietary PharmaVerComp crawls
// used in the paper (see DESIGN.md): sites carry the same textual and
// link-structure signals the paper documents for legitimate and
// illegitimate pharmacies, so the downstream classifiers and rankers
// exercise the same code paths and reproduce the published result
// shapes.
//
// Everything is a pure function of (Config.Seed, Config.Snapshot,
// domain): re-generating a world yields byte-identical pages.
package webgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"pharmaverify/internal/parallel"
)

// Config controls world generation.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Snapshot selects the crawl epoch: 1 for Dataset 1, 2 for the
	// re-crawl six months later (Dataset 2). Snapshot 2 re-generates
	// the same legitimate domains with fresh text and drifts the
	// illegitimate text distribution toward legitimate vocabulary.
	Snapshot int
	// NumLegit and NumIllegit size the two classes (Table 1: 167/1292
	// for Dataset 1, 167/1275 for Dataset 2).
	NumLegit, NumIllegit int
	// IllegitOffset shifts illegitimate domain indices so snapshots
	// have disjoint illegitimate domains, as in the paper.
	IllegitOffset int
	// MinPages/MaxPages bound the page count per site (default 6/18).
	MinPages, MaxPages int
	// MinWords/MaxWords bound the words per page (default 60/130).
	MinWords, MaxWords int
	// NetworkSize is the number of illegitimate sites per affiliate
	// network, each anchored on a hub pharmacy (default 50).
	NetworkSize int
	// IsolatedLegitFraction is the share of legitimate pharmacies with
	// no links into the trusted web (the paper's poorly-ranked
	// "new prescription" outliers; default 0.25).
	IsolatedLegitFraction float64
	// EvaderFraction is the share of illegitimate pharmacies that
	// avoid affiliate networks and imitate legitimate sites (the
	// paper's illegitimate ranking outliers; default 0.02).
	EvaderFraction float64

	// VocabShift pulls the illegitimate text mixture toward the
	// legitimate one for Snapshot >= 2 worlds (0 disables, 1 makes the
	// mixtures coincide). It models epoch-scale vocabulary restyling
	// beyond the built-in Snapshot-2 drift, giving drift monitors a
	// continuously tunable knob.
	VocabShift float64
	// LinkChurn is the per-link probability (Snapshot >= 2 only) that
	// a site's pre-assigned well-known endpoint is replaced by a fresh
	// relay domain that did not exist at train time, churning the
	// outbound-link distribution (0 disables).
	LinkChurn float64
	// BurstFraction is the share of networked illegitimate sites that
	// belong to burst-registered cohorts: groups registered together in
	// one campaign that share a page template, one endpoint set and one
	// hub (0 disables). Membership is drawn per snapshot, so cohorts
	// model registrations within a crawl epoch.
	BurstFraction float64
	// BurstCohortSize is how many sites share one burst cohort
	// (default 8).
	BurstCohortSize int
}

func (c Config) withDefaults() Config {
	if c.Snapshot == 0 {
		c.Snapshot = 1
	}
	if c.NumLegit == 0 {
		c.NumLegit = 167
	}
	if c.NumIllegit == 0 {
		c.NumIllegit = 1292
	}
	if c.MinPages == 0 {
		c.MinPages = 6
	}
	if c.MaxPages == 0 {
		c.MaxPages = 18
	}
	if c.MinWords == 0 {
		c.MinWords = 60
	}
	if c.MaxWords == 0 {
		c.MaxWords = 130
	}
	if c.NetworkSize == 0 {
		c.NetworkSize = 50
	}
	if c.IsolatedLegitFraction == 0 {
		c.IsolatedLegitFraction = 0.25
	}
	if c.EvaderFraction == 0 {
		c.EvaderFraction = 0.02
	}
	if c.BurstCohortSize == 0 {
		c.BurstCohortSize = 8
	}
	return c
}

// Dataset1Config returns the paper's Dataset 1 shape (167 legitimate,
// 1292 illegitimate pharmacies).
func Dataset1Config(seed int64) Config {
	return Config{Seed: seed, Snapshot: 1, NumLegit: 167, NumIllegit: 1292}
}

// Dataset2Config returns Dataset 2: the same 167 legitimate domains
// re-crawled six months later plus 1275 fresh illegitimate domains
// (disjoint from Dataset 1's, via the offset).
func Dataset2Config(seed int64) Config {
	return Config{Seed: seed, Snapshot: 2, NumLegit: 167, NumIllegit: 1275, IllegitOffset: 1292}
}

// Site is one generated pharmacy website.
type Site struct {
	Domain     string
	Legitimate bool
	// Hub marks the anchor pharmacy of an illegitimate affiliate
	// network; HubDomain is the hub a networked member links to.
	Hub       bool
	HubDomain string
	// Isolated marks sites with no links into the well-known web
	// (legitimate "new prescription" outliers).
	Isolated bool
	// Evader marks illegitimate sites that imitate legitimate ones in
	// both text and links.
	Evader bool
	// Burst marks members of a burst-registered cohort (see
	// Config.BurstFraction); BurstCohort numbers the cohort and is
	// meaningful only when Burst is set.
	Burst       bool
	BurstCohort int
	// Pages maps URL paths to HTML documents; Paths preserves a
	// deterministic order with "/" first.
	Pages map[string]string
	Paths []string

	// externals holds the pre-assigned well-known endpoint links
	// (see assignExternals).
	externals []string
}

// World is a generated set of pharmacy sites. It implements the
// crawler's Fetcher contract via the Fetch method.
type World struct {
	cfg     Config
	sites   map[string]*Site
	domains []string
}

// Generate builds the world for a configuration. Sites render through
// the pooled byte-buffer kernel on the process worker pool (render.go
// keeps the serial reference; see GenerateReference) — the output is
// byte-identical either way, pinned by the package tests.
func Generate(cfg Config) *World {
	w, order := buildWorld(cfg, false)
	plan := parallel.PlanGrainFor("webgen-render", 0, 1, len(order))
	parallel.ForGrain(len(order), plan.DocWorkers, plan.DocGrain, func(lo, hi int) {
		rb := renderBufPool.Get().(*renderBuf)
		for i := lo; i < hi; i++ {
			w.renderSiteFast(w.sites[order[i]], rb)
		}
		renderBufPool.Put(rb)
	})
	return w
}

// GenerateReference is Generate through the historical sequential
// paths: comparator-driven endpoint assignment and the
// strings.Builder + fmt renderer, one site at a time. It exists as the
// naive reference the generation kernels are pinned against in tests
// and the training benchmarks; production callers want Generate.
func GenerateReference(cfg Config) *World {
	w, order := buildWorld(cfg, true)
	for _, d := range order {
		w.renderSite(w.sites[d])
	}
	return w
}

// buildWorld runs every generation phase except page rendering: site
// plans, role assignment, hub attachment, external-endpoint assignment
// and churn. It returns the world plus the site rendering order (plan
// order: legitimate then illegitimate). Rendering is a pure per-site
// function of the returned state, which is what lets Generate fan it
// out. reference selects the historical endpoint-assignment sort (see
// assignExternalsReference).
func buildWorld(cfg Config, reference bool) (*World, []string) {
	cfg = cfg.withDefaults()
	w := &World{cfg: cfg, sites: make(map[string]*Site)}

	type plan struct {
		domain string
		legit  bool
		index  int
	}
	var plans []plan
	for i := 0; i < cfg.NumLegit; i++ {
		plans = append(plans, plan{legitDomain(i), true, i})
	}
	for i := 0; i < cfg.NumIllegit; i++ {
		plans = append(plans, plan{illegitDomain(i + cfg.IllegitOffset), false, i + cfg.IllegitOffset})
	}

	// First pass: create sites and assign roles (hub domains must exist
	// before members can link to them).
	var hubs []string
	for _, p := range plans {
		s := &Site{Domain: p.domain, Legitimate: p.legit}
		if p.legit {
			s.Isolated = roleDraw(cfg.Seed, p.domain, "isolated") < cfg.IsolatedLegitFraction
		} else {
			s.Evader = roleDraw(cfg.Seed, p.domain, "evader") < cfg.EvaderFraction
			s.Hub = !s.Evader && p.index%cfg.NetworkSize == 0
			if s.Hub {
				hubs = append(hubs, p.domain)
			}
			if cfg.BurstFraction > 0 && !s.Evader && !s.Hub {
				// Burst membership keys on the snapshot: cohorts are
				// campaign registrations within one crawl epoch.
				s.Burst = roleDraw(cfg.Seed, p.domain, fmt.Sprintf("burst|%d", cfg.Snapshot)) < cfg.BurstFraction
			}
		}
		w.sites[p.domain] = s
		w.domains = append(w.domains, p.domain)
	}
	sort.Strings(w.domains)

	// Group burst sites (in sorted-domain order, so cohorts are
	// deterministic) into cohorts led by their first member.
	var burst []*Site
	for _, d := range w.domains {
		if s := w.sites[d]; s.Burst {
			burst = append(burst, s)
		}
	}
	for i, s := range burst {
		s.BurstCohort = i / cfg.BurstCohortSize
	}

	// Second pass: attach networked members to hubs and assign the
	// well-known external endpoints with exact per-endpoint counts
	// (so the Table-11 ordering is structural, not sampling luck).
	for _, p := range plans {
		s := w.sites[p.domain]
		if !s.Legitimate && !s.Hub && !s.Evader && len(hubs) > 0 {
			s.HubDomain = hubs[(p.index/cfg.NetworkSize)%len(hubs)]
		}
	}
	// Burst cohorts register through one campaign: every member links
	// the leader's hub.
	for i, s := range burst {
		s.HubDomain = burst[(i/cfg.BurstCohortSize)*cfg.BurstCohortSize].HubDomain
	}
	if reference {
		w.assignExternalsReference()
	} else {
		w.assignExternals()
	}
	if cfg.LinkChurn > 0 && cfg.Snapshot >= 2 {
		w.churnExternals()
	}
	// Members share the leader's endpoint set exactly (one template,
	// one link farm).
	for i, s := range burst {
		leader := burst[(i/cfg.BurstCohortSize)*cfg.BurstCohortSize]
		s.externals = append([]string(nil), leader.externals...)
	}
	order := make([]string, len(plans))
	for i, p := range plans {
		order[i] = p.domain
	}
	return w, order
}

// churnExternals models link-farm churn between crawl epochs: each
// pre-assigned endpoint link is replaced, with probability
// cfg.LinkChurn, by a relay domain that did not exist at train time.
// The replacement stream is a pure function of (seed, snapshot,
// domain), so churned worlds regenerate byte-identically.
func (w *World) churnExternals() {
	for _, d := range w.domains {
		s := w.sites[d]
		if len(s.externals) == 0 {
			continue
		}
		rng := siteRNG(w.cfg.Seed, w.cfg.Snapshot, d, "churn")
		for i := range s.externals {
			if rng.Float64() < w.cfg.LinkChurn {
				s.externals[i] = fmt.Sprintf("http://www.relay%d-gateway.example/", rng.Intn(12))
			}
		}
	}
}

// DriftedPair generates a Dataset-1 → Dataset-2-shaped pair of worlds
// from one configuration: before is cfg pinned to Snapshot 1 with all
// drift knobs off (the training epoch), after re-crawls the same
// legitimate domains at Snapshot 2 with a disjoint illegitimate
// population and cfg's VocabShift / LinkChurn / BurstFraction applied.
// Both worlds are pure functions of cfg, so tests get a reproducible
// train-then-drift scenario from one seed.
func DriftedPair(cfg Config) (before, after *World) {
	base := cfg.withDefaults()
	b := base
	b.Snapshot = 1
	b.VocabShift, b.LinkChurn, b.BurstFraction = 0, 0, 0
	a := base
	a.Snapshot = 2
	a.IllegitOffset = base.IllegitOffset + base.NumIllegit
	return Generate(b), Generate(a)
}

// assignExternals distributes the weighted well-known endpoints over the
// sites of each class with exact counts: endpoint e with probability P
// is linked by round(P·n) of the n eligible sites, selected by a
// deterministic per-(site,endpoint) hash order. This keeps the expected
// distributions of the paper's Table 11 while eliminating binomial rank
// swaps between adjacent endpoints.
func (w *World) assignExternals() {
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
	// Kernelized selection: the per-(site,endpoint) hash draw is a pure
	// function, so it is computed once per site into a key table instead
	// of twice per sort comparison, where the reference pays a hasher, a
	// formatted write and a freshly seeded RNG per draw. The draws are
	// distinct in practice, so sorting by the table yields the exact
	// order the comparator-driven reference sort produces; the reference
	// lives in assignExternalsReference and the package tests pin full
	// worlds byte-identical across both paths.
	var order []*Site
	var keys []float64
	assign := func(sites []*Site, ep weightedEndpoint) {
		k := int(ep.P*float64(len(sites)) + 0.5)
		if k <= 0 {
			return
		}
		order = append(order[:0], sites...)
		keys = keys[:0]
		role := "ep|" + ep.Domain
		for _, s := range sites {
			keys = append(keys, roleDraw(w.cfg.Seed, s.Domain, role))
		}
		sort.Sort(&siteKeySort{sites: order, keys: keys})
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
	// Illegitimate storefronts sprinkle links to popular trusted sites
	// (social buttons, analytics) so the network signal stays noisy.
	for _, ep := range legitEndpoints[:5] {
		assign(illegitSites, weightedEndpoint{Domain: ep.Domain, P: 0.12})
	}
}

// siteKeySort orders sites by their precomputed draw keys, swapping
// both slices in lockstep (see assignExternals).
type siteKeySort struct {
	sites []*Site
	keys  []float64
}

func (s *siteKeySort) Len() int           { return len(s.sites) }
func (s *siteKeySort) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *siteKeySort) Swap(i, j int) {
	s.sites[i], s.sites[j] = s.sites[j], s.sites[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// Domains returns all site domains in sorted order.
func (w *World) Domains() []string { return append([]string(nil), w.domains...) }

// Site returns the site for a domain, or nil.
func (w *World) Site(domain string) *Site { return w.sites[domain] }

// notFoundError marks unknown domains/pages as permanent failures (via
// the Permanent() contract of internal/crawler), so a retrying crawler
// does not burn its retry budget on pages that can never exist.
type notFoundError struct{ msg string }

func (e *notFoundError) Error() string   { return e.msg }
func (e *notFoundError) Permanent() bool { return true }

// Fetch returns the HTML of a page, satisfying the crawler Fetcher
// contract. Unknown domains or paths yield a permanent error.
func (w *World) Fetch(domain, path string) (string, error) {
	s, ok := w.sites[domain]
	if !ok {
		return "", &notFoundError{msg: fmt.Sprintf("webgen: unknown domain %q", domain)}
	}
	if path == "" {
		path = "/"
	}
	html, ok := s.Pages[path]
	if !ok {
		return "", &notFoundError{msg: fmt.Sprintf("webgen: %s has no page %q", domain, path)}
	}
	return html, nil
}

// Labels returns pharmacy domain → class (1 legitimate, 0
// illegitimate). Attached auxiliary sites (directories) carry no label
// and are excluded.
func (w *World) Labels() map[string]int {
	m := make(map[string]int, len(w.domains))
	for _, d := range w.domains {
		if w.sites[d].Legitimate {
			m[d] = 1
		} else {
			m[d] = 0
		}
	}
	return m
}

func legitDomain(i int) string {
	return fmt.Sprintf("%s%d-pharmacy.com", legitSiteNames[i%len(legitSiteNames)], i)
}

var illegitTLDs = []string{".com", ".net", ".biz", ".info", ".ru", ".su", ".in"}

func illegitDomain(i int) string {
	name := illegitSiteNames[i%len(illegitSiteNames)]
	return fmt.Sprintf("%s%d%s", name, i, illegitTLDs[i%len(illegitTLDs)])
}

// siteRNG derives a deterministic random stream for one site in one
// snapshot.
func siteRNG(seed int64, snapshot int, domain, salt string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%s", seed, snapshot, domain, salt)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}
