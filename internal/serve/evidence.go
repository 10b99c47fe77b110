package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"pharmaverify/internal/core"
	"pharmaverify/internal/dataset"
)

// The serving verdict is an ensemble over independent evidence
// backends, mirroring the paper's fused text + network + registry
// design: each source inspects the crawled observation on its own
// terms, votes a P(legitimate), and the votes are averaged through the
// ensemble machinery. A source with nothing to say for a domain
// (errNoEvidence) simply drops out of the fusion — the verdict degrades
// to the remaining sources and the response itemizes exactly who
// contributed, the tiered-lookup shape where every answer records its
// provenance.

// errNoEvidence signals that a source has no opinion on this domain
// (not an error: the verdict is fused from the remaining sources).
var errNoEvidence = errors.New("serve: source has no evidence for this domain")

// Evidence is one source's vote.
type Evidence struct {
	// Prob is the source's P(legitimate).
	Prob float64
	// TrustScore is the raw link-graph score behind a network vote
	// (meaningful only when HasTrustScore).
	TrustScore    float64
	HasTrustScore bool
}

// EvidenceSource is one verdict backend: the text classifier, the
// TrustRank network model over the fleet-wide link graph, or a registry
// lookup. Assess votes on one crawled observation under one model;
// returning errNoEvidence abstains. Healthy reports whether the source
// is currently able to produce evidence (surfaced on /readyz).
// Implementations must be safe for concurrent use.
type EvidenceSource interface {
	Name() string
	Assess(ctx context.Context, model *core.Verifier, p dataset.Pharmacy) (Evidence, error)
	Healthy() bool
}

// SourceContribution is one source's recorded vote in a served verdict.
type SourceContribution struct {
	Name string  `json:"name"`
	Prob float64 `json:"prob"`
}

// textSource votes the text classifier's probability over the crawled
// summary terms — the frozen training vocabulary and model, exactly the
// offline pipeline's text half.
type textSource struct{}

func (textSource) Name() string { return "text" }

func (textSource) Healthy() bool { return true }

func (textSource) Assess(_ context.Context, model *core.Verifier, p dataset.Pharmacy) (Evidence, error) {
	return Evidence{Prob: model.TextProb(p.Terms)}, nil
}

// networkSource folds the crawl's outbound endpoints into the server's
// live link graph and votes the network classifier's probability for
// the domain's incrementally refreshed TrustRank score. It abstains
// when the node budget kept the domain out of the graph entirely.
type networkSource struct{ graph *linkGraph }

func (networkSource) Name() string { return "network" }

// Healthy reports whether the network backend is producing scores: it
// degrades only when crawls have been folded but no score snapshot has
// ever been computed (a refresh path failure).
func (n networkSource) Healthy() bool {
	return n.graph.snap.Load() != nil || n.graph.live.Stats().Folds == 0
}

func (n networkSource) Assess(_ context.Context, model *core.Verifier, p dataset.Pharmacy) (Evidence, error) {
	n.graph.fold(p.Domain, p.Outbound)
	n.graph.refreshIfStale(model, p.Domain)
	ts, known := n.graph.score(p.Domain)
	if !known {
		return Evidence{}, errNoEvidence
	}
	return Evidence{
		Prob:          model.NetworkProbFromTrust(ts),
		TrustScore:    ts,
		HasTrustScore: true,
	}, nil
}

// RegistryLookup answers whether a domain is a known (il)legitimate
// pharmacy in an authoritative registry — NABP/LegitScript in
// production, a static table in tests. known=false abstains.
type RegistryLookup interface {
	Lookup(ctx context.Context, domain string) (legitimate, known bool, err error)
}

// registrySource adapts a RegistryLookup into an evidence source: a
// registry hit votes 1 (legitimate) or 0 (illegitimate) into the
// fusion; an unknown domain abstains. A nil lookup (no registry
// configured) is the permanent abstainer — the source still appears in
// /readyz so operators see the backend is absent, not broken.
type registrySource struct{ lookup RegistryLookup }

func (registrySource) Name() string { return "registry" }

func (registrySource) Healthy() bool { return true }

func (r registrySource) Assess(ctx context.Context, _ *core.Verifier, p dataset.Pharmacy) (Evidence, error) {
	if r.lookup == nil {
		return Evidence{}, errNoEvidence
	}
	legit, known, err := r.lookup.Lookup(ctx, p.Domain)
	if err != nil {
		return Evidence{}, fmt.Errorf("registry lookup of %s: %w", p.Domain, err)
	}
	if !known {
		return Evidence{}, errNoEvidence
	}
	e := Evidence{Prob: 0}
	if legit {
		e.Prob = 1
	}
	return e, nil
}

// StaticRegistry is an in-memory RegistryLookup over a fixed
// domain → legitimacy table — the pluggable registry stub (and the
// -registry-file backend of pharmaverifyd). Domains are keyed through
// normalizeDomain, as verify requests are, so "www.Pharmacy.example:443"
// and "https://pharmacy.example/" name one entry.
type StaticRegistry struct{ verdicts map[string]bool }

// NewStaticRegistry builds a registry from a domain → legitimate map.
// Where two keys normalize to one domain with different verdicts, the
// domain is recorded illegitimate: the map has no order to pick a
// winner by, and a table that lists any form of a name as
// illegitimate does not vouch for it.
func NewStaticRegistry(verdicts map[string]bool) *StaticRegistry {
	r := &StaticRegistry{verdicts: make(map[string]bool, len(verdicts))}
	for d, v := range verdicts {
		d = normalizeDomain(d)
		if prev, ok := r.verdicts[d]; ok {
			v = v && prev
		}
		r.verdicts[d] = v
	}
	return r
}

// Lookup implements RegistryLookup. domain is a normalized request
// domain (normalizeDomain).
func (r *StaticRegistry) Lookup(_ context.Context, domain string) (legitimate, known bool, err error) {
	v, ok := r.verdicts[domain]
	return v, ok, nil
}

// Len reports the registered domain count.
func (r *StaticRegistry) Len() int { return len(r.verdicts) }

// ParseRegistry reads the -registry-file format: one "domain status"
// pair per line, status ∈ {legitimate, illegitimate}; blank lines and
// #-comments are ignored. Where lines name one normalized domain, the
// last of them wins, so a correction appended to a file takes effect.
// A malformed line, or a domain that normalizes to nothing, rejects
// the whole file.
func ParseRegistry(r io.Reader) (*StaticRegistry, error) {
	reg := &StaticRegistry{verdicts: make(map[string]bool)}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("registry line %d: want \"domain legitimate|illegitimate\", got %q", line, text)
		}
		domain := normalizeDomain(fields[0])
		if domain == "" {
			return nil, fmt.Errorf("registry line %d: %q names no domain", line, fields[0])
		}
		switch strings.ToLower(fields[1]) {
		case "legitimate", "legit":
			reg.verdicts[domain] = true
		case "illegitimate", "illegit":
			reg.verdicts[domain] = false
		default:
			return nil, fmt.Errorf("registry line %d: unknown status %q", line, fields[1])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return reg, nil
}
