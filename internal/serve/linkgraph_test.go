package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync/atomic"
	"testing"

	"pharmaverify/internal/core"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/trust"
)

// recrawlFetcher serves the test world, except that once swapped is
// set the root page of domain links elsewhere: the re-crawl of a site
// whose links changed since training.
type recrawlFetcher struct {
	inner   crawler.Fetcher
	domain  string
	swapped atomic.Bool
}

func (f *recrawlFetcher) Fetch(domain, path string) (string, error) {
	if domain == f.domain && path == "/" && f.swapped.Load() {
		return `<html><head><title>Pharmacy</title></head><body><p>order prescription medicine from our licensed pharmacy</p>` +
			`<a href="http://relinked-hub.example/">partner</a> <a href="https://www.fda.gov/safety">fda</a></body></html>`, nil
	}
	return f.inner.Fetch(domain, path)
}

// subsetVerifier trains a model on the test snapshot's pharmacies whose
// index i satisfies keep(i).
func subsetVerifier(t *testing.T, name string, keep func(i int) bool, opts core.Options) *core.Verifier {
	t.Helper()
	_, snap, _ := testVerifier(t)
	sub := &dataset.Snapshot{Name: name}
	for i, p := range snap.Pharmacies {
		if keep(i) {
			sub.Pharmacies = append(sub.Pharmacies, p)
		}
	}
	v, err := core.Train(sub, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// checkServedTrust compares the server's TrustRank with the offline
// construction over the model's training links merged with the live
// graph: the verdict just served, and the served score of every node of
// the fused graph, must be bit-equal to
// trust.TrustRank(trust.BuildGraph(merged).Undirected(), seeds, cfg)
// (without Undirected for a directed model).
func checkServedTrust(t *testing.T, step string, s *Server, v *core.Verifier, served DomainVerdict) {
	t.Helper()
	if served.Error != "" {
		t.Fatalf("%s: %s: %s", step, served.Domain, served.Error)
	}
	liveOut, _ := s.graph.live.SnapshotOutbound()
	merged := make(map[string][]string)
	for d, eps := range v.TrainingOutbound() {
		merged[d] = eps
	}
	for d, eps := range liveOut {
		merged[d] = eps
	}
	g := trust.BuildGraph(merged)
	opts := v.Options().Network
	if opts.Variant != core.TrustRankDirected {
		g = g.Undirected()
	}
	want := trust.TrustRank(g, v.Seeds(), opts.Trust)

	id := g.ID(served.Domain)
	voted := slices.ContainsFunc(served.Sources, func(c SourceContribution) bool { return c.Name == "network" })
	switch {
	case id < 0 && voted:
		t.Fatalf("%s: %s is no node of the fused graph, yet the network source voted", step, served.Domain)
	case id >= 0 && (!voted || math.Float64bits(served.TrustScore) != math.Float64bits(want[id])):
		t.Fatalf("%s: %s served trustScore %v (network voted %v), offline %v", step, served.Domain, served.TrustScore, voted, want[id])
	}
	for id := 0; id < g.Len(); id++ {
		got, ok := s.graph.score(g.Name(id))
		if !ok || math.Float64bits(got) != math.Float64bits(want[id]) {
			t.Fatalf("%s: node %s served %v (known %v), offline %v", step, g.Name(id), got, ok, want[id])
		}
	}
}

// TestServedTrustRankMatchesOffline grows a server's live graph through
// cold domains, a re-crawl that replaces a training pharmacy's links,
// domains the node bound drops, and a model swap, checking the served
// scores against the offline construction after every request — for a
// symmetrized (default) and a directed model.
func TestServedTrustRankMatchesOffline(t *testing.T) {
	w, snap, _ := testVerifier(t)
	heldOut := func(i int) bool { return i%3 == 0 }
	for _, variant := range []core.NetworkVariant{core.TrustRankUndirected, core.TrustRankDirected} {
		t.Run(string(variant), func(t *testing.T) {
			opts := core.Options{Classifier: core.NBM, Seed: 11, Network: core.NetworkConfig{Variant: variant}}
			model := subsetVerifier(t, "model-a", func(i int) bool { return !heldOut(i) }, opts)
			swapped := subsetVerifier(t, "model-b", func(i int) bool { return i%3 != 1 }, opts)
			var cold []string
			for i, p := range snap.Pharmacies {
				if heldOut(i) {
					cold = append(cold, p.Domain)
				}
			}
			recrawled := snap.Pharmacies[1].Domain // a training pharmacy of model-a
			fetch := &recrawlFetcher{inner: w, domain: recrawled}

			// Size the node bound to admit the first three cold domains and
			// the re-crawl in full, so the cold domains after them run into it.
			cfg := Config{Fetcher: fetch, GraphDirtyThreshold: 1}.withDefaults()
			names := map[string]bool{}
			observe := func(d string) {
				r := crawler.CrawlCtx(context.Background(), fetch, d, cfg.Crawl)
				names[d] = true
				for _, ep := range trust.OutboundEndpoints(r.External, d) {
					names[ep] = true
				}
			}
			for _, d := range cold[:3] {
				observe(d)
			}
			fetch.swapped.Store(true)
			observe(recrawled)
			fetch.swapped.Store(false)
			cfg.GraphMaxNodes = len(names) + 1

			s, err := New(model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			ctx := context.Background()
			serve := func(d string, refresh bool) DomainVerdict {
				return s.verifyDomain(ctx, s.model.Load(), d, refresh)
			}

			for i, d := range cold[:3] {
				checkServedTrust(t, fmt.Sprintf("cold domain %d", i), s, model, serve(d, false))
			}

			fetch.swapped.Store(true)
			v := serve(recrawled, true)
			if out, _ := s.graph.live.SnapshotOutbound(); !slices.Contains(out[recrawled], "relinked-hub.example") {
				t.Fatalf("re-crawl of %s not folded: live links %v", recrawled, out[recrawled])
			}
			checkServedTrust(t, "re-crawl replacing training links", s, model, v)

			dropped := 0
			for i, d := range cold[3:] {
				v := serve(d, false)
				if !s.graph.live.Contains(d) {
					dropped++
				}
				checkServedTrust(t, fmt.Sprintf("bounded cold domain %d", i), s, model, v)
			}
			if dropped == 0 {
				t.Fatalf("no cold domain was dropped by the node bound of %d", cfg.GraphMaxNodes)
			}

			s.SwapModel(swapped)
			checkServedTrust(t, "after a model swap", s, swapped, serve(cold[0], true))
		})
	}
}

// linklessFetcher serves the test world plus linklessDomain: one page
// that links nowhere.
type linklessFetcher struct{ inner crawler.Fetcher }

const linklessDomain = "linkless-pharmacy.example"

func (f linklessFetcher) Fetch(domain, path string) (string, error) {
	if domain == linklessDomain && path == "/" {
		return `<html><head><title>Pharmacy</title></head><body><p>order prescription medicine from our licensed pharmacy</p></body></html>`, nil
	}
	return f.inner.Fetch(domain, path)
}

// TestLinklessDomainIsScored: a crawled domain with no external links
// is a node of the offline graph, so the network source votes for it
// with the offline score, and repeated refresh=true requests, which
// re-fold the same empty link list, cost no TrustRank refresh after
// the first.
func TestLinklessDomainIsScored(t *testing.T) {
	w, _, v := testVerifier(t)
	s, ts := newTestServer(t, Config{Fetcher: linklessFetcher{w}})
	var first uint64
	for i := 0; i < 4; i++ {
		code, resp, _ := postVerify(t, ts.URL, VerifyRequest{Domain: linklessDomain, Refresh: true})
		if code != http.StatusOK || len(resp.Results) != 1 {
			t.Fatalf("request %d: code %d, %+v", i, code, resp.Results)
		}
		checkServedTrust(t, fmt.Sprintf("request %d", i), s, v, resp.Results[0])
		if !slices.ContainsFunc(resp.Results[0].Sources, func(c SourceContribution) bool { return c.Name == "network" }) {
			t.Fatalf("request %d: no network contribution in %+v", i, resp.Results[0].Sources)
		}
		// graphRefreshes backs pharmaverify_linkgraph_refreshes_total.
		refreshes := s.met.graphRefreshes.Value()
		if i == 0 {
			first = refreshes
		} else if refreshes != first {
			t.Fatalf("request %d: %d TrustRank refreshes, %d after the first request", i, refreshes, first)
		}
	}
}
