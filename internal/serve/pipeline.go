package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pharmaverify/internal/core"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/textproc"
	"pharmaverify/internal/trust"
)

// flightGroup deduplicates concurrent work for the same key: the first
// caller becomes the leader and starts fn, every concurrent caller for
// the same key blocks until fn finishes and shares its result. In the
// serving path the key is verdictKey(fingerprint, domain), so a burst
// of requests for one uncached domain costs exactly one crawl.
//
// fn runs on its own context — detached from the leader's request,
// bounded only by the server's maximum timeout — so an impatient
// leader (short deadline, dropped connection) cannot abort a crawl
// that patient followers are still waiting on. Every caller, leader
// included, waits under its own ctx and gives up individually.
type flightGroup struct {
	maxTimeout time.Duration

	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	v    DomainVerdict
	err  error
}

func newFlightGroup(maxTimeout time.Duration) *flightGroup {
	return &flightGroup{maxTimeout: maxTimeout, calls: make(map[string]*flightCall)}
}

// do runs fn under key, deduplicating concurrent calls. shared reports
// whether this caller joined a flight another caller started. A caller
// whose ctx expires stops waiting and returns ctx's error; the flight
// itself keeps running (and caching its result) for whoever remains.
func (g *flightGroup) do(ctx context.Context, key string, fn func(context.Context) (DomainVerdict, error)) (v DomainVerdict, shared bool, err error) {
	g.mu.Lock()
	c, ok := g.calls[key]
	if !ok {
		c = &flightCall{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()
		go func() {
			// Keep the leader's values (trace metadata) but not its
			// cancellation; the server's MaxTimeout is the only bound.
			runCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), g.maxTimeout)
			defer cancel()
			c.v, c.err = fn(runCtx)
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
	} else {
		g.mu.Unlock()
	}

	select {
	case <-c.done:
		return c.v, ok, c.err
	case <-ctx.Done():
		return DomainVerdict{}, ok, ctx.Err()
	}
}

// verdictKey is the cache and singleflight key: model identity plus
// domain. Keying on the fingerprint keeps cached verdicts consistent
// with fresh ones across hot reloads — a new model can never be served
// a predecessor's verdict.
func verdictKey(fingerprint, domain string) string {
	return fingerprint + "|" + domain
}

// verifyDomain produces the verdict for one domain under one model
// slot: verdict cache first, then singleflight-deduplicated on-demand
// assessment. Errors are returned inside the verdict (Error field) so a
// batch request reports per-domain failures without failing wholesale.
func (s *Server) verifyDomain(ctx context.Context, slot *modelSlot, domain string, refresh bool) DomainVerdict {
	key := verdictKey(slot.fingerprint, domain)
	if !refresh {
		if v, ok := s.cache.get(key); ok {
			s.met.domains.with("cache_hit").Inc()
			v.Cached = true
			return v
		}
	}
	v, shared, err := s.flight.do(ctx, key, func(ctx context.Context) (DomainVerdict, error) {
		v, _, err := s.assessObs(ctx, slot, domain)
		if err == nil && !v.Partial {
			// Cache successful, complete verdicts only — a transient
			// crawl failure must not stick for a whole TTL, and a
			// partial-crawl verdict must not shadow the full crawl a
			// later request could collect. A refresh=true assessment
			// also lands here, replacing any cached verdict: later cached
			// reads are never staler than the freshest one served.
			s.cache.put(key, v)
		}
		return v, err
	})
	switch {
	case err != nil:
		// Live assessment failed (crawl got nothing, quorum unmet, or
		// the caller's deadline fired while waiting on the flight). The
		// degradation policy: an expired verdict within the stale-serve
		// budget answers — marked — rather than erroring; honesty over
		// availability only when even the stale fallback is exhausted.
		if sv, stale, ok := s.cache.getStale(key); ok {
			if stale {
				s.met.domains.with("stale").Inc()
			} else {
				s.met.domains.with("cache_hit").Inc()
			}
			sv.Cached = true
			sv.Stale = stale
			return sv
		}
		s.met.domains.with("error").Inc()
		return DomainVerdict{Domain: domain, Error: err.Error()}
	case shared:
		s.met.domains.with("deduped").Inc()
	case v.Partial:
		s.met.domains.with("partial").Inc()
	default:
		s.met.domains.with("crawled").Inc()
	}
	return v
}

// Observation is the crawled, preprocessed evidence behind one fresh
// verdict: the same dataset.Pharmacy the evidence sources voted on,
// plus the verdict it produced. The re-verification pipeline consumes
// it — the drift monitor folds the terms and outbound endpoints into
// its streaming frequency counters.
type Observation struct {
	Domain   string
	Terms    []string
	Outbound []string
	Pages    int
	Verdict  DomainVerdict
}

// Reverify runs the full serving pipeline — crawl, preprocess, evidence
// fusion, shadow double-assessment — for one corpus domain on behalf of
// the background re-verification scheduler, and refreshes the verdict
// cache so live traffic benefits from the sweep: a cached verdict is
// replaced in place without being promoted, and an uncached one is
// added only into spare room (see verdictCache.refresh), so a sweep
// never flushes live traffic's verdicts. It deliberately does
// NOT pass through admission control: background sweeps must never
// occupy the worker slots live /v1/verify traffic is admitted on (the
// crawl-rate budget lives in the scheduler instead). The live model at
// call time judges the domain, exactly as a live request would be.
func (s *Server) Reverify(ctx context.Context, domain string) (Observation, error) {
	domain = normalizeDomain(domain)
	if domain == "" {
		return Observation{}, errors.New("serve: empty domain")
	}
	slot := s.model.Load()
	v, p, err := s.assessObs(ctx, slot, domain)
	if err != nil {
		return Observation{}, err
	}
	if !v.Partial {
		s.cache.refresh(verdictKey(slot.fingerprint, domain), v)
	}
	return Observation{Domain: domain, Terms: p.Terms, Outbound: p.Outbound, Pages: p.Pages, Verdict: v}, nil
}

// assessObs runs the on-demand pipeline for one domain: crawl (bounded
// by the flight's detached context and the server's crawl budget),
// preprocess (summarize + stop-word removal, exactly the training-time
// pipeline), then fuse the ordered evidence backends over the
// observation. On success it also feeds the cross-cutting consumers of
// a fresh observation: the shadow candidate double-assesses it and the
// domain joins the re-verification corpus. The verdict is
// self-contained — it owns a clone of its crawl telemetry — so it can
// be cached and returned to many requests safely. The observation
// (second return) shares the crawl's term/endpoint slices; callers must
// treat it as read-only.
func (s *Server) assessObs(ctx context.Context, slot *modelSlot, domain string) (DomainVerdict, dataset.Pharmacy, error) {
	start := time.Now()
	r := crawler.CrawlCtx(ctx, s.fetch, domain, s.cfg.Crawl)
	s.met.crawlSecs.observe(time.Since(start).Seconds())
	// Fold this request's telemetry into the process-wide counters
	// (race-safe: Aggregator copies, the verdict gets its own clone).
	s.agg.Add(r.Stats)

	// A crawl interrupted mid-deadline degrades to the pages collected
	// so far instead of discarding them; only a crawl that got nothing
	// at all is an error. ctx.Err() can be nil here — the cancel may
	// have come from the flight's detached MaxTimeout context rather
	// than this one — so it is never wrapped blindly.
	partial := r.Stats.Cancels != 0
	if len(r.Pages) == 0 {
		if partial {
			if cause := ctx.Err(); cause != nil {
				return DomainVerdict{}, dataset.Pharmacy{}, fmt.Errorf("crawl of %s interrupted: %w", domain, cause)
			}
			return DomainVerdict{}, dataset.Pharmacy{}, fmt.Errorf("crawl of %s interrupted before any page was collected", domain)
		}
		return DomainVerdict{}, dataset.Pharmacy{}, fmt.Errorf("no pages crawled for %s (%d attempts, %d failed)",
			domain, r.Stats.Attempts, r.Stats.Failures)
	}

	preStart := time.Now()
	summary := textproc.Summarize(r.Text())
	p := dataset.Pharmacy{
		Domain:   domain,
		Terms:    s.pre.Terms(summary),
		Outbound: trust.OutboundEndpoints(r.External, domain),
		Pages:    len(r.Pages),
	}
	s.met.preprocessSecs.observe(time.Since(preStart).Seconds())

	v, err := s.fuse(ctx, slot, p)
	if err != nil {
		return DomainVerdict{}, dataset.Pharmacy{}, err
	}
	v.Partial = partial
	v.Pages = len(r.Pages)
	v.Crawl = r.Stats.Clone()

	// A fresh verdict feeds the continuous-verification loop: the shadow
	// candidate silently re-judges the same observation (live traffic and
	// background sweeps both exercise the promotion gate), and the domain
	// becomes part of the corpus future sweeps revisit.
	if st := s.shadow.Load(); st != nil {
		s.shadowAssess(st, p, &v)
	}
	s.corpus.add(domain)
	return v, p, nil
}

// fuse runs the ordered evidence backends (text, network, registry)
// over one crawled observation and fuses their votes through the
// ensemble machinery's equal-weight averaging — with only the text and
// network sources contributing this is bit-identical to the offline
// pipeline's (textProb+networkProb)/2 decision rule. A source that
// abstains (errNoEvidence) or fails — including one tripped by its
// breaker, shed by its bulkhead, or cut off by its deadline — drops
// out; the verdict records exactly which sources contributed. Fusion
// proceeds only when at least MinEvidence sources contributed;
// otherwise the caller falls back to a stale cached verdict.
func (s *Server) fuse(ctx context.Context, slot *modelSlot, p dataset.Pharmacy) (DomainVerdict, error) {
	// Fusion is the final, bounded stage: once a crawl has paid for an
	// observation, the sources get to vote even when the caller's
	// deadline fired mid-crawl (the partial-degradation path) — each
	// assessment is individually bounded by the per-source deadline, so
	// detaching here trades at most len(sources)×SourceTimeout for a
	// verdict instead of discarding the collected pages. With the
	// per-source deadline explicitly disabled, the request context
	// stays the only bound.
	if s.cfg.SourceTimeout > 0 {
		ctx = context.WithoutCancel(ctx)
	}
	v := DomainVerdict{Domain: p.Domain}
	probs := make([]float64, 0, len(s.sources))
	for _, src := range s.sources {
		name := src.Name()
		t0 := time.Now()
		ev, err := src.Assess(ctx, slot.v, p)
		s.met.sourceSecs.with(name).observe(time.Since(t0).Seconds())
		if errors.Is(err, errNoEvidence) {
			continue
		}
		if err != nil {
			// One failing backend degrades the verdict to the remaining
			// sources rather than failing the domain. Breaker and
			// bulkhead rejections were already counted by the guard
			// under their own names — don't double-book them as errors.
			if !errors.Is(err, errSourceOpen) && !errors.Is(err, errSourceSaturated) {
				s.met.sourceErrors.with(name).Inc()
			}
			continue
		}
		s.met.sourceContribs.with(name).Inc()
		v.Sources = append(v.Sources, SourceContribution{Name: name, Prob: ev.Prob})
		probs = append(probs, ev.Prob)
		if name == "text" {
			v.TextProb = ev.Prob
		}
		if ev.HasTrustScore {
			v.TrustScore = ev.TrustScore
			v.NetworkProb = ev.Prob
		}
	}
	if len(probs) < s.cfg.MinEvidence {
		s.met.quorumFailures.Inc()
		return DomainVerdict{}, fmt.Errorf("%w: %d of %d required sources voted for %s",
			errInsufficientEvidence, len(probs), s.cfg.MinEvidence, p.Domain)
	}
	// The offline decision rule over every contributing source.
	v.Legitimate = core.FusedLegitimate(probs...)
	// Rank keeps the paper's OPR semantics: textRank + networkRank.
	v.Rank = v.TextProb + v.TrustScore
	if v.Legitimate {
		s.met.verdicts.with("legitimate").Inc()
	} else {
		s.met.verdicts.with("illegitimate").Inc()
	}
	return v, nil
}
