package crawler

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pharmaverify/internal/webgen"
)

// mapFetcher serves pages from a map keyed by domain|path.
type mapFetcher map[string]string

func (m mapFetcher) Fetch(domain, path string) (string, error) {
	if html, ok := m[domain+"|"+path]; ok {
		return html, nil
	}
	return "", errors.New("404")
}

func TestCrawlFollowsInternalLinks(t *testing.T) {
	f := mapFetcher{
		"x.com|/":  `<a href="/a">a</a><a href="/b">b</a><p>root</p>`,
		"x.com|/a": `<a href="/c">c</a><p>page a</p>`,
		"x.com|/b": `<p>page b</p>`,
		"x.com|/c": `<p>page c</p><a href="http://other.com/x">ext</a>`,
	}
	r := Crawl(f, "x.com", Config{})
	if len(r.Pages) != 4 {
		t.Fatalf("pages = %d, want 4", len(r.Pages))
	}
	if r.Pages[0].Path != "/" { // sorted: "/", "/a", "/b", "/c"
		t.Errorf("pages not sorted: %v", r.Pages[0].Path)
	}
	if !reflect.DeepEqual(r.External, []string{"http://other.com/x"}) {
		t.Errorf("External = %v", r.External)
	}
	if r.Fetched != 4 || r.Failed != 0 {
		t.Errorf("counters: %d fetched, %d failed", r.Fetched, r.Failed)
	}
}

func TestCrawlMaxPages(t *testing.T) {
	// A chain of 50 pages with a cap of 10: the crawler must stop at 10
	// pages AND must not waste fetches (or politeness delay) on pages
	// it would discard afterwards.
	f := mapFetcher{}
	for i := 0; i < 50; i++ {
		f[fmt.Sprintf("x.com|/p%d", i)] = fmt.Sprintf(`<a href="/p%d">next</a><p>n</p>`, i+1)
	}
	f["x.com|/"] = `<a href="/p0">start</a>`
	pageFetches := int32(0)
	counting := FetcherFunc(func(domain, path string) (string, error) {
		if path != "/robots.txt" {
			atomic.AddInt32(&pageFetches, 1)
		}
		return f.Fetch(domain, path)
	})
	r := Crawl(counting, "x.com", Config{MaxPages: 10, Workers: 4})
	if len(r.Pages) != 10 {
		t.Errorf("crawled %d pages, cap 10", len(r.Pages))
	}
	if n := atomic.LoadInt32(&pageFetches); n != 10 {
		t.Errorf("issued %d page fetches for a cap of 10 (over-fetch)", n)
	}
	if r.Fetched != 10 {
		t.Errorf("Fetched = %d, want 10 fetch attempts", r.Fetched)
	}
}

func TestCrawlWorkersExceedFrontierNoDeadlock(t *testing.T) {
	// A one-page site crawled with far more workers than frontier
	// entries: every idle worker must wake up and exit.
	f := mapFetcher{"x.com|/": `<p>only page</p>`}
	done := make(chan Result, 1)
	go func() { done <- Crawl(f, "x.com", Config{Workers: 32}) }()
	select {
	case r := <-done:
		if len(r.Pages) != 1 {
			t.Errorf("pages = %d, want 1", len(r.Pages))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Crawl deadlocked with Workers > frontier")
	}
}

func TestCrawlRetriesTransientErrors(t *testing.T) {
	// "/a" fails twice transiently before succeeding; with a retry
	// budget of 3 the page must be recovered and the counters must
	// record the retries.
	var aCalls int32
	f := FetcherFunc(func(domain, path string) (string, error) {
		switch path {
		case "/robots.txt":
			return "", Permanent(errors.New("404"))
		case "/":
			return `<a href="/a">a</a><p>root</p>`, nil
		case "/a":
			if atomic.AddInt32(&aCalls, 1) <= 2 {
				return "", errors.New("connection reset")
			}
			return `<p>recovered</p>`, nil
		}
		return "", Permanent(errors.New("404"))
	})
	r := Crawl(f, "x.com", Config{Retry: RetryConfig{MaxAttempts: 3}})
	if len(r.Pages) != 2 {
		t.Fatalf("pages = %d, want 2 (transient failure must be retried)", len(r.Pages))
	}
	if r.Stats.Retries != 2 || r.Stats.Failures != 2 {
		t.Errorf("retries=%d failures=%d, want 2/2", r.Stats.Retries, r.Stats.Failures)
	}
	if r.Stats.Attempts != r.Stats.Successes+r.Stats.Failures {
		t.Errorf("stats do not reconcile: %+v", r.Stats)
	}
}

func TestCrawlDoesNotRetryPermanentErrors(t *testing.T) {
	var missingCalls int32
	f := FetcherFunc(func(domain, path string) (string, error) {
		switch path {
		case "/robots.txt":
			return "", Permanent(errors.New("404"))
		case "/":
			return `<a href="/missing">gone</a><p>root</p>`, nil
		}
		atomic.AddInt32(&missingCalls, 1)
		return "", Permanent(errors.New("404"))
	})
	r := Crawl(f, "x.com", Config{Retry: RetryConfig{MaxAttempts: 5}})
	if n := atomic.LoadInt32(&missingCalls); n != 1 {
		t.Errorf("permanent 404 fetched %d times, want 1", n)
	}
	if r.Stats.PagesFailed != 1 {
		t.Errorf("PagesFailed = %d, want 1", r.Stats.PagesFailed)
	}
}

func TestCrawlCircuitBreaker(t *testing.T) {
	// The front page lists many children, all of which hard-fail. With
	// FailureBudget 3 the crawl must stop after 3 consecutive lost
	// pages and keep what it has instead of hammering the domain.
	var links strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&links, `<a href="/dead%d">x</a>`, i)
	}
	var childFetches int32
	f := FetcherFunc(func(domain, path string) (string, error) {
		switch path {
		case "/robots.txt":
			return "", Permanent(errors.New("404"))
		case "/":
			return links.String() + "<p>root</p>", nil
		}
		atomic.AddInt32(&childFetches, 1)
		return "", Permanent(errors.New("503 forever"))
	})
	r := Crawl(f, "x.com", Config{Workers: 1, FailureBudget: 3})
	if r.Stats.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", r.Stats.BreakerTrips)
	}
	if n := atomic.LoadInt32(&childFetches); n != 3 {
		t.Errorf("fetched %d dead children before tripping, want 3", n)
	}
	if len(r.Pages) != 1 {
		t.Errorf("pages = %d, want the 1 page collected before the trip", len(r.Pages))
	}
}

func TestCrawlFetchTimeout(t *testing.T) {
	slow := make(chan struct{})
	f := FetcherFunc(func(domain, path string) (string, error) {
		if path == "/robots.txt" {
			return "", Permanent(errors.New("404"))
		}
		if path == "/hang" {
			<-slow
			return "", errors.New("never reached in time")
		}
		return `<a href="/hang">h</a><p>root</p>`, nil
	})
	r := Crawl(f, "x.com", Config{FetchTimeout: 50 * time.Millisecond})
	close(slow)
	if r.Stats.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", r.Stats.Timeouts)
	}
	if len(r.Pages) != 1 {
		t.Errorf("pages = %d, want 1", len(r.Pages))
	}
}

func TestCrawlRobotsRetriedWithDelay(t *testing.T) {
	// robots.txt fails transiently once; with retries enabled the
	// second attempt must land and its Disallow rules must be honored —
	// a flaky robots fetch must not silently allow everything.
	var robotsCalls int32
	f := FetcherFunc(func(domain, path string) (string, error) {
		switch path {
		case "/robots.txt":
			if atomic.AddInt32(&robotsCalls, 1) == 1 {
				return "", errors.New("i/o timeout")
			}
			return "User-agent: *\nDisallow: /private", nil
		case "/":
			return `<a href="/private/x">p</a><a href="/ok">ok</a><p>root</p>`, nil
		case "/ok":
			return `<p>ok</p>`, nil
		}
		return "", Permanent(errors.New("404"))
	})
	r := Crawl(f, "x.com", Config{Retry: RetryConfig{MaxAttempts: 3}})
	if got := atomic.LoadInt32(&robotsCalls); got != 2 {
		t.Errorf("robots.txt fetched %d times, want 2 (one retry)", got)
	}
	if r.Stats.RobotsUnreachable {
		t.Error("RobotsUnreachable set although the retry succeeded")
	}
	for _, p := range r.Pages {
		if strings.HasPrefix(p.Path, "/private") {
			t.Errorf("crawled disallowed path %s", p.Path)
		}
	}
	if len(r.Pages) != 2 {
		t.Errorf("pages = %d, want 2", len(r.Pages))
	}
}

func TestCrawlRobotsUnreachableRecorded(t *testing.T) {
	f := FetcherFunc(func(domain, path string) (string, error) {
		if path == "/robots.txt" {
			return "", errors.New("i/o timeout") // transient, forever
		}
		if path == "/" {
			return `<p>root</p>`, nil
		}
		return "", Permanent(errors.New("404"))
	})
	r := Crawl(f, "x.com", Config{Retry: RetryConfig{MaxAttempts: 2}})
	if !r.Stats.RobotsUnreachable {
		t.Error("RobotsUnreachable not recorded for a robots.txt that kept timing out")
	}
	if r.Stats.RobotsAttempts != 2 || r.Stats.RobotsFailures != 2 {
		t.Errorf("robots attempts/failures = %d/%d, want 2/2",
			r.Stats.RobotsAttempts, r.Stats.RobotsFailures)
	}
	if len(r.Pages) != 1 {
		t.Errorf("pages = %d, want 1 (crawl degrades to allow-all)", len(r.Pages))
	}
}

func TestCrawlHandlesFetchErrors(t *testing.T) {
	f := mapFetcher{
		"x.com|/": `<a href="/missing">gone</a><p>root</p>`,
	}
	r := Crawl(f, "x.com", Config{})
	// Fetched counts fetch attempts: "/" (success) and "/missing"
	// (failure).
	if r.Fetched != 2 || r.Failed != 1 {
		t.Errorf("fetched=%d failed=%d, want 2/1", r.Fetched, r.Failed)
	}
	if r.Stats.Attempts != r.Stats.Successes+r.Stats.Failures {
		t.Errorf("stats do not reconcile: %+v", r.Stats)
	}
	if r.Stats.PagesFailed != 1 {
		t.Errorf("PagesFailed = %d, want 1", r.Stats.PagesFailed)
	}
}

func TestCrawlDeduplicatesPaths(t *testing.T) {
	calls := int32(0)
	f := FetcherFunc(func(domain, path string) (string, error) {
		if path == "/robots.txt" {
			return "", errors.New("404")
		}
		atomic.AddInt32(&calls, 1)
		return `<a href="/">home</a><a href="/">again</a><p>x</p>`, nil
	})
	r := Crawl(f, "x.com", Config{})
	if len(r.Pages) != 1 {
		t.Errorf("pages = %d", len(r.Pages))
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Errorf("fetch called %d times for one unique path", calls)
	}
}

func TestCrawlAbsoluteInternalAndWWW(t *testing.T) {
	f := mapFetcher{
		"x.com|/":  `<a href="http://x.com/a">a</a><a href="http://www.x.com/b">b</a><p>.</p>`,
		"x.com|/a": `<p>a</p>`,
		"x.com|/b": `<p>b</p>`,
	}
	r := Crawl(f, "x.com", Config{})
	if len(r.Pages) != 3 {
		t.Errorf("pages = %d, want 3 (absolute internal links followed)", len(r.Pages))
	}
	if len(r.External) != 0 {
		t.Errorf("own-domain absolute links recorded as external: %v", r.External)
	}
}

func TestCrawlFragmentsAndSchemesIgnored(t *testing.T) {
	f := mapFetcher{
		"x.com|/":  `<a href="#top">top</a><a href="mailto:[email protected]">m</a><a href="/a#frag">a</a><p>.</p>`,
		"x.com|/a": `<p>a</p>`,
	}
	r := Crawl(f, "x.com", Config{})
	if len(r.Pages) != 2 {
		t.Errorf("pages = %d, want 2", len(r.Pages))
	}
}

func TestInternalPath(t *testing.T) {
	cases := []struct {
		link, base, domain, want string
		ok                       bool
	}{
		{"/about", "/", "x.com", "/about", true},
		{"about", "/", "x.com", "/about", true},
		{"http://x.com/a", "/", "x.com", "/a", true},
		{"http://www.x.com/a", "/", "x.com", "/a", true},
		{"http://x.com", "/", "x.com", "/", true},
		{"http://x.com:8080/a", "/", "x.com", "/a", true},
		{"http://other.com/a", "/", "x.com", "", false},
		{"//x.com/a", "/", "x.com", "/a", true},
		{"#frag", "/", "x.com", "", false},
		{"", "/", "x.com", "", false},
		// Page-relative references resolve against the referring page's
		// directory, not the site root.
		{"page2", "/docs/a", "x.com", "/docs/page2", true},
		{"page2", "/docs/", "x.com", "/docs/page2", true},
		{"sub/page", "/docs/a", "x.com", "/docs/sub/page", true},
		{"../up", "/docs/sub/a", "x.com", "/docs/up", true},
		{"./here", "/docs/a", "x.com", "/docs/here", true},
		{"../../past-root", "/a", "x.com", "/past-root", true},
		{"page2#frag", "/docs/a", "x.com", "/docs/page2", true},
	}
	for _, c := range cases {
		got, ok := internalPath(c.link, c.base, c.domain)
		if got != c.want || ok != c.ok {
			t.Errorf("internalPath(%q,%q,%q) = %q,%v want %q,%v", c.link, c.base, c.domain, got, ok, c.want, c.ok)
		}
	}
}

func TestCrawlResolvesRelativeLinks(t *testing.T) {
	f := mapFetcher{
		"x.com|/":           `<a href="/docs/a">docs</a><p>root</p>`,
		"x.com|/docs/a":     `<a href="b">sibling</a><a href="sub/c">deeper</a><p>a</p>`,
		"x.com|/docs/b":     `<p>b</p>`,
		"x.com|/docs/sub/c": `<a href="../b">up</a><p>c</p>`,
		"x.com|/b":          `<p>WRONG: root-resolved sibling</p>`,
	}
	r := Crawl(f, "x.com", Config{})
	var paths []string
	for _, p := range r.Pages {
		paths = append(paths, p.Path)
	}
	want := []string{"/", "/docs/a", "/docs/b", "/docs/sub/c"}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("crawled paths = %v, want %v", paths, want)
	}
}

func TestCrawlSyntheticWorld(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 1, NumLegit: 3, NumIllegit: 6, NetworkSize: 3})
	d := w.Domains()[0]
	r := Crawl(w, d, Config{})
	if len(r.Pages) != len(w.Site(d).Paths) {
		t.Errorf("crawled %d pages, site has %d", len(r.Pages), len(w.Site(d).Paths))
	}
	if len(r.External) == 0 {
		t.Error("no external links found on synthetic site")
	}
	for _, p := range r.Pages {
		if p.Text == "" {
			t.Errorf("page %s has no text", p.Path)
		}
	}
}

func TestCrawlAll(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 2, NumLegit: 4, NumIllegit: 8, NetworkSize: 4})
	domains := w.Domains()
	results := CrawlAll(w, domains, Config{}, 4)
	if len(results) != len(domains) {
		t.Fatalf("results = %d, want %d", len(results), len(domains))
	}
	for _, d := range domains {
		if results[d].Fetched == 0 {
			t.Errorf("domain %s: nothing fetched", d)
		}
	}
}

// Every domain of a small world crawls to the same pages, external
// links and telemetry at every worker count, on a clean web and on a
// seeded flaky one. Pages are parsed outside the crawl mutex, so the
// -race run of this test also exercises concurrent parsing.
func TestCrawlDeterministicAcrossWorkerCounts(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 3, NumLegit: 3, NumIllegit: 6, NetworkSize: 3})
	flaky := FaultConfig{Seed: 9, TransientRate: 0.3, PermanentRate: 0.05, MaxTransientPerPage: 2}
	for _, faults := range []*FaultConfig{nil, &flaky} {
		var pages, failures int
		for _, d := range w.Domains() {
			crawl := func(workers int) Result {
				cfg := Config{Workers: workers, Retry: RetryConfig{MaxAttempts: 3}}
				if faults == nil {
					return Crawl(w, d, cfg)
				}
				return Crawl(NewFaultInjector(w, *faults), d, cfg)
			}
			want := crawl(1)
			pages += len(want.Pages)
			failures += want.Stats.Failures
			for _, workers := range []int{2, 4, 8} {
				got := crawl(workers)
				if !reflect.DeepEqual(got.Pages, want.Pages) || !reflect.DeepEqual(got.External, want.External) {
					t.Errorf("%s (faults %v): workers=%d pages or external links differ from workers=1", d, faults != nil, workers)
				}
				if got.Stats != want.Stats || got.Fetched != want.Fetched || got.Failed != want.Failed {
					t.Errorf("%s (faults %v): workers=%d stats %+v, workers=1 %+v", d, faults != nil, workers, got.Stats, want.Stats)
				}
			}
		}
		if pages == 0 || (faults != nil) != (failures > 0) {
			t.Errorf("faults %v: %d pages, %d failed attempts", faults != nil, pages, failures)
		}
	}
}

func TestHTTPFetcher(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			fmt.Fprint(w, `<title>srv</title><a href="/a">a</a>`)
		case "/a":
			fmt.Fprint(w, `<p>page a</p>`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	domain := strings.TrimPrefix(srv.URL, "http://")

	h := &HTTPFetcher{}
	html, err := h.Fetch(domain, "/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "srv") {
		t.Errorf("body = %q", html)
	}
	if _, err := h.Fetch(domain, "/missing"); err == nil {
		t.Error("404 must be an error")
	}

	r := Crawl(h, domain, Config{MaxPages: 5})
	if len(r.Pages) != 2 {
		t.Errorf("HTTP crawl pages = %d, want 2", len(r.Pages))
	}
}

// The default client follows a redirect within the requested host and
// refuses, as a Permanent error, one to another host: the foreign page
// must not be credited to the crawled domain. A caller-supplied Client
// keeps its own policy.
func TestHTTPFetcherRedirects(t *testing.T) {
	foreign := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<p>foreign shop</p>`)
	}))
	defer foreign.Close()
	site := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			fmt.Fprint(w, `<a href="/moved">m</a><a href="/away">a</a>`)
		case "/moved":
			http.Redirect(w, r, "/home", http.StatusMovedPermanently)
		case "/home":
			fmt.Fprint(w, `<p>home page</p>`)
		case "/away":
			http.Redirect(w, r, foreign.URL+"/", http.StatusFound)
		default:
			http.NotFound(w, r)
		}
	}))
	defer site.Close()
	domain := strings.TrimPrefix(site.URL, "http://")

	h := &HTTPFetcher{}
	if html, err := h.Fetch(domain, "/moved"); err != nil || !strings.Contains(html, "home page") {
		t.Errorf("same-host redirect: body %q, err %v", html, err)
	}
	if html, err := h.Fetch(domain, "/away"); err == nil || !IsPermanent(err) {
		t.Errorf("cross-host redirect: body %q, err %v, want a Permanent error", html, err)
	}
	r := Crawl(h, domain, Config{Retry: RetryConfig{MaxAttempts: 3}})
	if len(r.Pages) != 2 || r.Stats.PagesFailed != 1 || r.Stats.Retries != 0 {
		t.Errorf("crawl: %d pages, stats %+v; want 2 pages and the cross-host page lost without retries", len(r.Pages), r.Stats)
	}
	for _, p := range r.Pages {
		if strings.Contains(p.Text, "foreign") {
			t.Errorf("page %s carries the foreign host's text %q", p.Path, p.Text)
		}
	}

	own := &HTTPFetcher{Client: &http.Client{}}
	if html, err := own.Fetch(domain, "/away"); err != nil || !strings.Contains(html, "foreign shop") {
		t.Errorf("caller-supplied client: body %q, err %v, want the redirect followed", html, err)
	}
}

// A redirect between a host and its www alias stays on the site, as
// internal links do; any other host is refused.
func TestSameHostRedirect(t *testing.T) {
	req := func(u string) *http.Request { return httptest.NewRequest(http.MethodGet, u, nil) }
	cases := []struct {
		from, to string
		ok       bool
	}{
		{"http://x.com/", "https://x.com/a", true},
		{"http://x.com/", "http://www.x.com/", true},
		{"http://WWW.X.com/", "http://x.com/", true},
		{"http://x.com/", "http://y.com/", false},
		{"http://x.com/", "http://x.com.evil.net/", false},
		{"http://x.com:8080/", "http://x.com:9090/", false},
	}
	for _, c := range cases {
		err := sameHostRedirect(req(c.to), []*http.Request{req(c.from)})
		if (err == nil) != c.ok || (err != nil && !IsPermanent(err)) {
			t.Errorf("%s -> %s: err %v, want allowed=%v", c.from, c.to, err, c.ok)
		}
	}
}

func BenchmarkCrawlSite(b *testing.B) {
	w := webgen.Generate(webgen.Config{Seed: 42, NumLegit: 1, NumIllegit: 1, NetworkSize: 1, MinPages: 18, MaxPages: 18})
	d := w.Domains()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Crawl(w, d, Config{})
	}
}
