package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"pharmaverify/internal/core"
	"pharmaverify/internal/trust"
)

// linkGraph is the serving layer's network-evidence backend state: a
// bounded trust.LiveGraph fed by every on-demand crawl's outbound
// endpoints, plus an incrementally refreshed TrustRank score snapshot
// over the union of the model's training link structure and the live
// graph. Scores are recomputed when enough graph-changing folds have
// accumulated (dirtyThreshold), when a served domain is missing from
// the current snapshot (a cold domain must not be scored 0 against a
// stale graph), when the model changes (seeds and training links are
// per-model), or on the server's background refresh tick — never
// unconditionally per request.
type linkGraph struct {
	live           *trust.LiveGraph
	dirtyThreshold uint64
	met            *metrics

	// refreshMu serializes recomputes and guards ranker, the current
	// model's training links interned once (ranker.fp names the model);
	// snap is the lock-free read path.
	refreshMu sync.Mutex
	ranker    *modelRanker
	snap      atomic.Pointer[trustSnapshot]
}

// modelRanker is a trust.Ranker over one model's training links and
// seeds merged with the live graph.
type modelRanker struct {
	fp string
	*trust.Ranker
}

// trustSnapshot is one immutable TrustRank computation over the fused
// (training ∪ live) graph, tagged with the model fingerprint it was
// computed for.
type trustSnapshot struct {
	fp string
	*trust.Ranked
}

func newLinkGraph(cfg Config, met *metrics) *linkGraph {
	return &linkGraph{
		live: trust.NewLiveGraph(trust.LiveConfig{
			MaxNodes:        cfg.GraphMaxNodes,
			MaxOutPerDomain: cfg.GraphMaxOut,
		}),
		dirtyThreshold: uint64(cfg.GraphDirtyThreshold),
		met:            met,
	}
}

// fold records one crawl's outbound endpoints; it reports whether the
// domain is part of the live graph (false once the node budget is
// exhausted — the network source then degrades for this domain).
func (g *linkGraph) fold(domain string, endpoints []string) bool {
	return g.live.Fold(domain, endpoints)
}

// score returns the served TrustRank score of a domain and whether the
// current snapshot knows it at all.
func (g *linkGraph) score(domain string) (float64, bool) {
	snap := g.snap.Load()
	if snap == nil {
		return 0, false
	}
	return snap.Score(domain)
}

// stale decides whether the snapshot must be recomputed before serving
// domain (empty domain: only model/dirtiness staleness, the background
// tick's view).
func (g *linkGraph) stale(v *core.Verifier, domain string) bool {
	snap := g.snap.Load()
	if snap == nil {
		return true
	}
	if snap.fp != v.Fingerprint() {
		return true
	}
	if g.live.Version()-snap.Version >= g.dirtyThreshold {
		return true
	}
	if domain != "" {
		// A miss forces a refresh only for domains the live graph
		// actually admitted; a domain dropped by the node bound would
		// otherwise trigger a futile recompute on every request.
		if _, ok := snap.Score(domain); !ok && g.live.Contains(domain) {
			return true
		}
	}
	return false
}

// refreshIfStale recomputes the score snapshot when stale. Concurrent
// callers serialize on refreshMu and re-check under the lock, so a
// burst of folds costs one recompute, not one per caller.
func (g *linkGraph) refreshIfStale(v *core.Verifier, domain string) {
	if !g.stale(v, domain) {
		return
	}
	g.refreshMu.Lock()
	defer g.refreshMu.Unlock()
	if !g.stale(v, domain) {
		return
	}
	g.refresh(v)
}

// refresh recomputes TrustRank over exactly the offline pipeline's
// construction — training outbound links, with freshly crawled domains
// replacing their training entry, symmetrized unless the model was
// trained directed — so the served scores are bit-identical to
// trust.TrustRank(trust.BuildGraph(merged).Undirected(), …) over the
// same crawls. The model's training links are interned once per model;
// a refresh then does integer work only (see trust.Ranker). It runs on
// the request path whenever a cold domain forces it, and on the
// background tick. Callers hold refreshMu.
func (g *linkGraph) refresh(v *core.Verifier) {
	start := time.Now()
	if g.ranker == nil || g.ranker.fp != v.Fingerprint() {
		opts := v.Options().Network
		base := trust.NewBase(v.TrainingOutbound(), v.Seeds())
		g.ranker = &modelRanker{
			fp:     v.Fingerprint(),
			Ranker: trust.NewRanker(base, g.live, opts.Variant == core.TrustRankDirected, opts.Trust),
		}
	}
	g.snap.Store(&trustSnapshot{fp: g.ranker.fp, Ranked: g.ranker.Rank()})
	g.met.graphRefreshes.Inc()
	g.met.refreshSecs.observe(time.Since(start).Seconds())
}

// dirty reports the graph-changing folds not yet reflected in the
// served snapshot (for /metrics).
func (g *linkGraph) dirty() uint64 {
	snap := g.snap.Load()
	if snap == nil {
		return g.live.Version()
	}
	return g.live.Version() - snap.Version
}
