// Package crawler implements the site crawler used to collect pharmacy
// content, standing in for the crawler4j setup of the paper: each
// domain is crawled breadth-first without a depth limit but with a cap
// of 200 pages (the paper's configuration), collecting per-page visible
// text and both internal and external links.
//
// The crawler is generic over a Fetcher, so it runs against the
// synthetic web of internal/webgen in experiments and against live HTTP
// (HTTPFetcher) when pointed at the real internet.
//
// # Resilience
//
// Real crawls fail in transient ways. Config.Retry enables per-request
// retries with exponential backoff and deterministic jitter;
// Config.FetchTimeout bounds each attempt; Config.FailureBudget is a
// per-domain circuit breaker that abandons a domain after N consecutive
// lost pages and degrades gracefully to whatever was collected. Errors
// marked with Permanent (HTTP 4xx, webgen's unknown pages) are never
// retried. Every crawl reports its telemetry in Result.Stats, and the
// FaultInjector wrapper provides a seeded flaky-world harness for
// exercising all of this deterministically.
//
// # Cancellation
//
// CrawlCtx and CrawlAllCtx are the context-aware entry points: a
// cancelled or expired context stops the crawl promptly — politeness
// delays and backoff sleeps select on ctx.Done(), workers stop claiming
// frontier work, and in-flight fetches are abandoned (fetchers that
// implement CtxFetcher are cancelled; plain Fetchers have their result
// discarded). An interrupted domain returns the pages collected so far
// with Stats.Cancels set, so callers can tell a degraded partial crawl
// from a complete one.
package crawler

import (
	"context"
	"errors"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"pharmaverify/internal/htmlx"
	"pharmaverify/internal/parallel"
)

// DefaultMaxPages is the per-domain page cap from the paper.
const DefaultMaxPages = 200

// Fetcher retrieves one page of a domain. Implementations must be safe
// for concurrent use. Errors marked via Permanent (or exposing a
// Permanent() bool method) are treated as hard failures and never
// retried; all other errors count as transient.
type Fetcher interface {
	Fetch(domain, path string) (html string, err error)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(domain, path string) (string, error)

// Fetch calls f.
func (f FetcherFunc) Fetch(domain, path string) (string, error) { return f(domain, path) }

// CtxFetcher is the optional context-aware extension of Fetcher. When a
// fetcher implements it, CrawlCtx passes its context (bounded by
// Config.FetchTimeout) into every fetch so a cancelled crawl aborts the
// underlying I/O instead of merely discarding its result. HTTPFetcher
// implements it.
type CtxFetcher interface {
	Fetcher
	FetchCtx(ctx context.Context, domain, path string) (html string, err error)
}

// Config controls a crawl.
type Config struct {
	// MaxPages caps pages collected per domain (default 200). The
	// crawler never starts more fetches than can still fit under the
	// cap, so fetch attempts stay within MaxPages × Retry.MaxAttempts.
	MaxPages int
	// Workers is the number of concurrent fetches per domain
	// (default 4).
	Workers int
	// UserAgent identifies the crawler to robots.txt policies
	// (default "pharmaverify").
	UserAgent string
	// IgnoreRobots disables robots.txt processing. By default the
	// crawler fetches /robots.txt first and honors Disallow rules, as
	// crawler4j does.
	IgnoreRobots bool
	// Delay inserts a politeness pause before every fetch attempt,
	// including the robots.txt request (crawler4j's politenessDelay).
	// Zero means no delay — appropriate for the synthetic web; set
	// ~200ms+ for live crawls.
	Delay time.Duration
	// Retry enables per-request retries with exponential backoff; the
	// zero value means a single attempt per request.
	Retry RetryConfig
	// FetchTimeout bounds one fetch attempt (0 = unbounded). Timed-out
	// attempts count as transient failures and are retried under the
	// Retry budget.
	FetchTimeout time.Duration
	// FailureBudget is the per-domain circuit breaker: after this many
	// consecutive pages are lost (retries exhausted or permanent
	// errors), the crawl of the domain stops and returns the pages
	// collected so far with Stats.BreakerTrips set. 0 disables the
	// breaker.
	FailureBudget int
	// AttemptBudget caps the total page-fetch attempts of one crawl
	// (0 = no cap). It is enforced at page-claim time — one attempt slot
	// is reserved per in-flight page, and once recorded attempts plus
	// reservations reach the budget no further pages are claimed. Pages
	// already in flight still finish their remaining retries, so the
	// hard ceiling is AttemptBudget + Workers×(Retry.MaxAttempts−1)
	// attempts. The serving path uses this to bound the worst-case work
	// a single on-demand verification can cost, independently of how
	// link-rich the site turns out to be.
	AttemptBudget int
}

func (c Config) withDefaults() Config {
	if c.MaxPages == 0 {
		c.MaxPages = DefaultMaxPages
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.UserAgent == "" {
		c.UserAgent = "pharmaverify"
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// Page is one crawled page.
type Page struct {
	Path  string
	Title string
	Text  string
	Links []string
}

// Result is the outcome of crawling one domain.
type Result struct {
	Domain string
	// Pages is sorted by path for deterministic downstream processing.
	Pages []Page
	// External holds the raw external link URLs found anywhere on the
	// site, deduplicated, sorted.
	External []string
	// Fetched and Failed count page fetch attempts (including
	// retries): Fetched mirrors Stats.Attempts and Failed mirrors
	// Stats.Failures.
	Fetched, Failed int
	// Stats is the full crawl telemetry for this domain.
	Stats Stats
}

// Text returns the merged text of all pages (the summarization input).
func (r Result) Text() []string {
	out := make([]string, len(r.Pages))
	for i, p := range r.Pages {
		out[i] = p.Text
	}
	return out
}

// Crawl fetches one domain breadth-first starting from "/". Unless
// Config.IgnoreRobots is set, /robots.txt is consulted first and
// disallowed paths are skipped. A missing robots.txt (permanent error)
// allows all; a robots.txt that stays unreachable through the retry
// budget also allows all but is recorded in Stats.RobotsUnreachable.
func Crawl(f Fetcher, domain string, cfg Config) Result {
	return CrawlCtx(context.Background(), f, domain, cfg)
}

// CrawlCtx is Crawl with cooperative cancellation: when ctx is
// cancelled or its deadline expires, politeness and backoff sleeps are
// interrupted, no further pages are claimed, and the pages collected so
// far are returned with Stats.Cancels set (unless the crawl had already
// finished naturally). The cancel-to-return latency is bounded by one
// in-flight fetch attempt — never by a backoff sleep.
func CrawlCtx(ctx context.Context, f Fetcher, domain string, cfg Config) Result {
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}

	var (
		mu sync.Mutex
		st Stats
	)

	// fetchRetry runs the full politeness + timeout + retry loop for
	// one path. Counters are recorded under mu; robots.txt traffic goes
	// to the dedicated robots counters so page attempts stay comparable
	// to MaxPages. Attempts abandoned because ctx was cancelled are not
	// recorded at all: they are artifacts of the interruption, and the
	// domain will be recrawled from scratch on resume.
	fetchRetry := func(p string, robots bool) (html string, err error) {
		for attempt := 1; ; attempt++ {
			if cfg.Delay > 0 {
				if err := sleepCtx(ctx, cfg.Delay); err != nil {
					return "", err
				}
			}
			html, err = fetchAttempt(ctx, f, domain, p, cfg.FetchTimeout)
			if ctx.Err() != nil && isContextError(err) {
				return "", ctx.Err()
			}

			mu.Lock()
			if robots {
				st.RobotsAttempts++
				if err != nil {
					st.RobotsFailures++
				}
			} else {
				st.Attempts++
				if attempt > 1 {
					st.Retries++
				}
				if err == nil {
					st.Successes++
					st.Bytes += int64(len(html))
				} else {
					st.Failures++
				}
			}
			if errors.Is(err, ErrFetchTimeout) {
				st.Timeouts++
			}
			mu.Unlock()

			if err == nil || IsPermanent(err) || attempt >= cfg.Retry.MaxAttempts {
				return html, err
			}
			if d := cfg.Retry.backoff(domain, p, attempt); d > 0 {
				// A mid-backoff cancel returns within one timer tick
				// instead of sleeping out the full (possibly multi-
				// second) backoff.
				if err := sleepCtx(ctx, d); err != nil {
					return "", err
				}
			}
		}
	}

	var robots *Robots
	if !cfg.IgnoreRobots {
		body, err := fetchRetry("/robots.txt", true)
		if ctx.Err() != nil && isContextError(err) {
			st.Cancels = 1
			return Result{Domain: domain, Stats: st}
		}
		switch {
		case err == nil:
			robots = ParseRobots(body)
		case !IsPermanent(err):
			// Still failing transiently after the whole retry budget:
			// proceed as allow-all but say so, instead of silently
			// conflating an unreachable robots.txt with a missing one.
			st.RobotsUnreachable = true
		}
	}
	allowed := func(path string) bool {
		return robots.Allowed(cfg.UserAgent, path)
	}
	if !allowed("/") {
		return Result{Domain: domain, Stats: st}
	}

	var (
		seen        = map[string]bool{"/": true}
		frontier    = []string{"/"}
		inFlight    int
		pages       []Page
		external    = map[string]bool{}
		consecutive int // consecutive lost pages, for the breaker
		tripped     bool
		canceled    bool
		aborted     int // fetches abandoned because ctx was cancelled
		cond        = sync.NewCond(&mu)
	)

	// A context that is already dead must not race the watcher: without
	// this check a worker could claim and fetch a page before the
	// watcher goroutine ever runs.
	if ctx.Err() != nil {
		canceled = true
	}

	// The watcher wakes every worker blocked in cond.Wait when the
	// context is cancelled; stopWatch releases it once the crawl ends so
	// no goroutine outlives CrawlCtx.
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			mu.Lock()
			canceled = true
			cond.Broadcast()
			mu.Unlock()
		case <-stopWatch:
		}
	}()

	worker := func() {
		for {
			mu.Lock()
			for {
				if tripped || canceled {
					mu.Unlock()
					return
				}
				// Claim work only while a page slot is free: the
				// in-flight reservation guarantees the crawl never
				// fetches (or retries) pages that could not be kept,
				// and that len(pages) never exceeds MaxPages. The
				// attempt budget reserves one attempt per in-flight
				// page the same way.
				if len(frontier) > 0 && len(pages)+inFlight < cfg.MaxPages &&
					(cfg.AttemptBudget <= 0 || st.Attempts+inFlight < cfg.AttemptBudget) {
					break
				}
				if inFlight == 0 {
					// Nothing running: the frontier is empty or the cap
					// is reached for good.
					mu.Unlock()
					return
				}
				cond.Wait()
			}
			path := frontier[0]
			frontier = frontier[1:]
			inFlight++
			mu.Unlock()

			html, err := fetchRetry(path, false)
			// Parsing touches no crawl state, so it runs before taking
			// mu and a domain's workers parse concurrently. Everything
			// that orders the crawl stays under mu below.
			var pg htmlx.Page
			if err == nil {
				pg = htmlx.Parse(html)
			}

			mu.Lock()
			inFlight--
			if ctx.Err() != nil && isContextError(err) {
				// The attempt was cut off by cancellation, not by the
				// site: the page is neither failed nor lost, the whole
				// domain is simply incomplete.
				aborted++
				cond.Broadcast()
				mu.Unlock()
				continue
			}
			if err != nil {
				st.PagesFailed++
				consecutive++
				if cfg.FailureBudget > 0 && consecutive >= cfg.FailureBudget && !tripped {
					tripped = true
					st.BreakerTrips++
				}
				cond.Broadcast()
				mu.Unlock()
				continue
			}
			consecutive = 0
			pages = append(pages, Page{Path: path, Title: pg.Title, Text: pg.Text, Links: pg.Links})
			for _, link := range pg.Links {
				if ip, ok := internalPath(link, path, domain); ok {
					if !allowed(ip) {
						continue
					}
					if !seen[ip] && len(seen) < 4*cfg.MaxPages {
						seen[ip] = true
						frontier = append(frontier, ip)
					}
				} else if isExternal(link) {
					external[link] = true
				}
			}
			cond.Broadcast()
			mu.Unlock()
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	close(stopWatch)

	// A cancel that raced the natural end of the crawl (empty frontier,
	// nothing aborted, cap not the reason we stopped early) does not
	// make the result partial. ctx.Err() is consulted directly — the
	// workers may have drained through an aborted fetch before the
	// watcher goroutine ever marked canceled — and mu is held because
	// the watcher can still be writing the flag.
	mu.Lock()
	if (canceled || ctx.Err() != nil) && len(pages) < cfg.MaxPages && (len(frontier) > 0 || aborted > 0) {
		st.Cancels = 1
	}
	mu.Unlock()

	sort.Slice(pages, func(i, j int) bool { return pages[i].Path < pages[j].Path })
	ext := make([]string, 0, len(external))
	for l := range external {
		ext = append(ext, l)
	}
	sort.Strings(ext)
	return Result{
		Domain:   domain,
		Pages:    pages,
		External: ext,
		Fetched:  st.Attempts,
		Failed:   st.Failures,
		Stats:    st,
	}
}

// CrawlAll crawls many domains concurrently (workers controls the
// number of simultaneous domain crawls; <= 0 uses the shared worker
// default — parallel.SetDefault / PHARMAVERIFY_WORKERS, then
// GOMAXPROCS) and returns results keyed by domain. Aggregate the
// per-domain telemetry with AggregateStats.
func CrawlAll(f Fetcher, domains []string, cfg Config, workers int) map[string]Result {
	results, _ := CrawlAllCtx(context.Background(), f, domains, cfg, workers)
	return results
}

// CrawlAllCtx is CrawlAll with cooperative cancellation. The domain
// fan-out runs through the shared parallel engine, so it honors the
// process-wide worker default. On cancellation no new domains are
// started; domains already crawling return partial results with
// Stats.Cancels set, unstarted domains are absent from the map, and
// ctx's error is returned alongside whatever completed.
func CrawlAllCtx(ctx context.Context, f Fetcher, domains []string, cfg Config, workers int) (map[string]Result, error) {
	slots := make([]Result, len(domains))
	started := make([]bool, len(domains))
	err := parallel.ForCtx(ctx, len(domains), workers, func(i int) {
		started[i] = true
		slots[i] = CrawlCtx(ctx, f, domains[i], cfg)
	})
	results := make(map[string]Result, len(domains))
	for i, r := range slots {
		if started[i] {
			results[r.Domain] = r
		}
	}
	return results, err
}

// internalPath resolves a link found on the page at base against the
// crawled domain. It accepts site-relative paths ("/x"), page-relative
// references ("page2", "../up") resolved against the referring page's
// directory, and absolute URLs whose host is the domain or its www
// alias, and returns the normalized path.
func internalPath(link, base, domain string) (string, bool) {
	switch {
	case link == "" || strings.HasPrefix(link, "#") ||
		strings.HasPrefix(link, "mailto:") || strings.HasPrefix(link, "javascript:") ||
		strings.HasPrefix(link, "tel:"):
		return "", false
	case strings.HasPrefix(link, "//"):
		link = "http:" + link
	}
	if i := strings.Index(link, "://"); i >= 0 {
		rest := link[i+3:]
		var host, path string
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			host, path = rest[:j], rest[j:]
		} else {
			host, path = rest, "/"
		}
		if k := strings.IndexByte(host, ':'); k >= 0 {
			host = host[:k]
		}
		host = strings.ToLower(host)
		if host == domain || host == "www."+domain {
			return splitFragment(path), true
		}
		return "", false
	}
	if strings.HasPrefix(link, "/") {
		return splitFragment(link), true
	}
	// Page-relative reference: resolve against the referring page's
	// directory, so "page2" on /docs/a yields /docs/page2 (not /page2).
	dir := "/"
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		dir = base[:i+1]
	}
	return splitFragment(path.Clean(dir + splitFragment(link))), true
}

func splitFragment(p string) string {
	if i := strings.IndexByte(p, '#'); i >= 0 {
		p = p[:i]
	}
	if p == "" {
		p = "/"
	}
	return p
}

// isExternal reports whether a link points at another host.
func isExternal(link string) bool {
	return strings.Contains(link, "://") || strings.HasPrefix(link, "//")
}
