package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pharmaverify/internal/core"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/webgen"
)

// testWorld builds one small synthetic world plus a verifier trained on
// its snapshot, shared across the test binary (training is the slow
// part).
var (
	worldOnce sync.Once
	world     *webgen.World
	snap      *dataset.Snapshot
	verifier  *core.Verifier
)

func testVerifier(t testing.TB) (*webgen.World, *dataset.Snapshot, *core.Verifier) {
	t.Helper()
	worldOnce.Do(func() {
		world = webgen.Generate(webgen.Config{Seed: 11, NumLegit: 12, NumIllegit: 36, NetworkSize: 12})
		var err error
		snap, err = dataset.Build("serve-test", world, world.Domains(), world.Labels(), crawler.Config{}, 8)
		if err != nil {
			panic(err)
		}
		verifier, err = core.Train(snap, core.Options{Classifier: core.NBM, Seed: 11})
		if err != nil {
			panic(err)
		}
	})
	if verifier == nil {
		t.Fatal("test verifier unavailable")
	}
	return world, snap, verifier
}

// pickDomain returns a domain of the requested class.
func pickDomain(t testing.TB, legit bool) string {
	t.Helper()
	w, _, _ := testVerifier(t)
	want := ml.Illegitimate
	if legit {
		want = ml.Legitimate
	}
	for d, label := range w.Labels() {
		if label == want {
			return d
		}
	}
	t.Fatal("no domain of requested class")
	return ""
}

// countingFetcher counts root-page fetches per domain — one per crawl,
// so it measures how many crawls each domain cost.
type countingFetcher struct {
	inner crawler.Fetcher
	mu    sync.Mutex
	roots map[string]int
}

func newCountingFetcher(inner crawler.Fetcher) *countingFetcher {
	return &countingFetcher{inner: inner, roots: make(map[string]int)}
}

func (c *countingFetcher) Fetch(domain, path string) (string, error) {
	if path == "/" {
		c.mu.Lock()
		c.roots[domain]++
		c.mu.Unlock()
	}
	return c.inner.Fetch(domain, path)
}

func (c *countingFetcher) rootFetches(domain string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roots[domain]
}

// gatedFetcher blocks every fetch until released, signalling arrival.
type gatedFetcher struct {
	inner   crawler.Fetcher
	started chan string   // receives the domain of each arriving crawl fetch
	release chan struct{} // closed (or fed) to let fetches proceed
}

func (g *gatedFetcher) Fetch(domain, path string) (string, error) {
	select {
	case g.started <- domain:
	default:
	}
	<-g.release
	return g.inner.Fetch(domain, path)
}

// fakeClock is an injectable, advanceable clock for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	_, _, v := testVerifier(t)
	s, err := New(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postVerify(t testing.TB, url string, req VerifyRequest) (int, VerifyResponse, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr VerifyResponse
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &vr); err != nil {
			t.Fatalf("bad response body %q: %v", data, err)
		}
	}
	return resp.StatusCode, vr, resp.Header
}

func TestVerifyEndToEnd(t *testing.T) {
	w, snapshot, v := testVerifier(t)
	_, ts := newTestServer(t, Config{Fetcher: w, Workers: 4})

	domain := pickDomain(t, true)
	code, resp, _ := postVerify(t, ts.URL, VerifyRequest{Domain: domain})
	if code != http.StatusOK {
		t.Fatalf("verify returned %d", code)
	}
	if resp.Model != v.Fingerprint() {
		t.Errorf("response model %q, want served fingerprint %q", resp.Model, v.Fingerprint())
	}
	if len(resp.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(resp.Results))
	}
	got := resp.Results[0]
	if got.Domain != domain || got.Error != "" {
		t.Fatalf("unexpected verdict %+v", got)
	}
	if got.Pages == 0 || got.Crawl == nil || got.Crawl.Successes == 0 {
		t.Errorf("verdict missing crawl telemetry: %+v", got)
	}

	// The on-demand pipeline must agree exactly with the offline one:
	// the same domain assessed from the training snapshot's entry.
	for _, p := range snapshot.Pharmacies {
		if p.Domain != domain {
			continue
		}
		want := v.Assess([]dataset.Pharmacy{p})[0]
		if got.Legitimate != want.Legitimate || got.Rank != want.Rank || got.TextProb != want.TextProb {
			t.Errorf("online verdict %+v disagrees with offline assessment %+v", got, want)
		}
	}
}

func TestVerifyBatchRanked(t *testing.T) {
	w, _, _ := testVerifier(t)
	_, ts := newTestServer(t, Config{Fetcher: w, Workers: 4})

	legit, illegit := pickDomain(t, true), pickDomain(t, false)
	code, resp, _ := postVerify(t, ts.URL, VerifyRequest{Domains: []string{illegit, legit}})
	if code != http.StatusOK {
		t.Fatalf("verify returned %d", code)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	if len(resp.Ranking) != 2 {
		t.Fatalf("ranking %v, want both domains", resp.Ranking)
	}
	// Results keep request order; ranking orders by decreasing score.
	byDomain := map[string]DomainVerdict{}
	for _, r := range resp.Results {
		byDomain[r.Domain] = r
	}
	if byDomain[resp.Ranking[0]].Rank < byDomain[resp.Ranking[1]].Rank {
		t.Errorf("ranking %v not in decreasing rank order", resp.Ranking)
	}
}

func TestVerifyRejectsBadRequests(t *testing.T) {
	w, _, _ := testVerifier(t)
	_, ts := newTestServer(t, Config{Fetcher: w, MaxBatch: 2})

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"garbage", `{nope`, http.StatusBadRequest},
		{"batch too large", `{"domains":["a.com","b.com","c.com"]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/v1/verify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/verify = %d, want 405", resp.StatusCode)
	}
}

// TestSingleflightDedup is the acceptance-criteria witness: 64
// concurrent requests for the same uncached domain must trigger exactly
// one crawl. Run under -race in CI.
func TestSingleflightDedup(t *testing.T) {
	w, _, _ := testVerifier(t)
	counting := newCountingFetcher(w)
	_, ts := newTestServer(t, Config{Fetcher: counting, Workers: 8, QueueDepth: 128})

	domain := pickDomain(t, false)
	const n = 64
	var (
		wg       sync.WaitGroup
		failures atomic.Int32
	)
	verdicts := make([]VerifyResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], verdicts[i], _ = postVerify(t, ts.URL, VerifyRequest{Domain: domain})
			if codes[i] != http.StatusOK {
				failures.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d of %d concurrent requests failed (codes %v)", failures.Load(), n, codes)
	}
	if got := counting.rootFetches(domain); got != 1 {
		t.Fatalf("%d concurrent requests cost %d crawls, want exactly 1", n, got)
	}
	// Every response carries the same verdict.
	first := verdicts[0].Results[0]
	for i, vr := range verdicts {
		r := vr.Results[0]
		if r.Legitimate != first.Legitimate || r.Rank != first.Rank {
			t.Fatalf("request %d got a different verdict: %+v vs %+v", i, r, first)
		}
	}
}

// TestBatchDeadlineFillsSkippedDomains: when the per-request deadline
// fires mid-batch, the domains the fan-out never dispatched must come
// back as explicit per-domain errors — never as zero-value verdicts
// that read like real "illegitimate" rulings for an empty domain.
func TestBatchDeadlineFillsSkippedDomains(t *testing.T) {
	w, _, _ := testVerifier(t)
	gate := &gatedFetcher{inner: w, started: make(chan string, 8), release: make(chan struct{})}
	_, ts := newTestServer(t, Config{Fetcher: gate, Workers: 2, BatchWorkers: 1})

	// BatchWorkers=1 runs the batch sequentially: the first domain's
	// crawl hangs at the gate until the 50 ms deadline fires, so the
	// remaining two are never dispatched.
	domains := []string{pickDomain(t, true), "b.example", "c.example"}
	code, vr, _ := postVerify(t, ts.URL, VerifyRequest{Domains: domains, TimeoutMs: 50})
	close(gate.release) // let the detached crawl finish

	if code != http.StatusOK {
		t.Fatalf("batch returned %d, want 200 with per-domain errors", code)
	}
	if len(vr.Results) != len(domains) {
		t.Fatalf("got %d results, want %d", len(vr.Results), len(domains))
	}
	for i, r := range vr.Results {
		if r.Domain != domains[i] {
			t.Errorf("result %d domain %q, want %q (zero-value verdict leaked)", i, r.Domain, domains[i])
		}
		if r.Error == "" {
			t.Errorf("result %d (%s) has no error after the deadline fired: %+v", i, domains[i], r)
		}
	}
	if len(vr.Ranking) != 0 {
		t.Errorf("ranking %v includes unassessed domains", vr.Ranking)
	}
}

// TestFollowerSurvivesImpatientLeader: the singleflight crawl runs on a
// context detached from the leader's request, so a leader with a tiny
// deadline times out alone while a follower with budget left still gets
// the verdict from the shared crawl.
func TestFollowerSurvivesImpatientLeader(t *testing.T) {
	w, _, _ := testVerifier(t)
	gate := &gatedFetcher{inner: w, started: make(chan string, 8), release: make(chan struct{})}
	_, ts := newTestServer(t, Config{Fetcher: gate, Workers: 2})

	domain := pickDomain(t, true)
	leaderc := make(chan VerifyResponse, 1)
	go func() {
		_, vr, _ := postVerify(t, ts.URL, VerifyRequest{Domain: domain, TimeoutMs: 50})
		leaderc <- vr
	}()
	select {
	case <-gate.started:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached the fetcher")
	}

	// The leader gives up at its deadline while its crawl is still gated.
	lr := <-leaderc
	if len(lr.Results) != 1 || lr.Results[0].Error == "" {
		t.Fatalf("leader should have timed out, got %+v", lr.Results)
	}

	// A follower with the default (generous) budget joins the same
	// flight — the entry stays registered while the crawl is gated —
	// and must receive the real verdict once the crawl completes.
	followc := make(chan VerifyResponse, 1)
	go func() {
		_, vr, _ := postVerify(t, ts.URL, VerifyRequest{Domain: domain})
		followc <- vr
	}()
	time.Sleep(50 * time.Millisecond) // let the follower join the flight
	close(gate.release)
	fr := <-followc
	if len(fr.Results) != 1 || fr.Results[0].Error != "" {
		t.Fatalf("follower failed despite remaining budget: %+v", fr.Results)
	}
	if fr.Results[0].Pages == 0 {
		t.Errorf("follower verdict missing crawl results: %+v", fr.Results[0])
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	w, _, _ := testVerifier(t)
	counting := newCountingFetcher(w)
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	s, ts := newTestServer(t, Config{
		Fetcher: counting, Workers: 2, CacheTTL: time.Minute, now: clock.now,
	})

	domain := pickDomain(t, true)
	if code, vr, _ := postVerify(t, ts.URL, VerifyRequest{Domain: domain}); code != 200 || vr.Results[0].Cached {
		t.Fatalf("first lookup: code %d cached %v, want fresh 200", code, vr.Results[0].Cached)
	}
	if code, vr, _ := postVerify(t, ts.URL, VerifyRequest{Domain: domain}); code != 200 || !vr.Results[0].Cached {
		t.Fatalf("second lookup within TTL: code %d cached %v, want cache hit", code, vr.Results[0].Cached)
	}
	if got := counting.rootFetches(domain); got != 1 {
		t.Fatalf("cache hit still crawled: %d crawls", got)
	}

	clock.advance(2 * time.Minute)
	if code, vr, _ := postVerify(t, ts.URL, VerifyRequest{Domain: domain}); code != 200 || vr.Results[0].Cached {
		t.Fatalf("post-TTL lookup: code %d cached %v, want fresh re-crawl", code, vr.Results[0].Cached)
	}
	if got := counting.rootFetches(domain); got != 2 {
		t.Fatalf("expired entry not re-crawled: %d crawls, want 2", got)
	}
	if _, _, expiries, _ := s.cache.stats(); expiries != 1 {
		t.Errorf("expiries = %d, want 1", expiries)
	}
}

func TestRefreshBypassesCache(t *testing.T) {
	w, _, _ := testVerifier(t)
	counting := newCountingFetcher(w)
	_, ts := newTestServer(t, Config{Fetcher: counting, Workers: 2})

	domain := pickDomain(t, true)
	postVerify(t, ts.URL, VerifyRequest{Domain: domain})
	code, vr, _ := postVerify(t, ts.URL, VerifyRequest{Domain: domain, Refresh: true})
	if code != 200 || vr.Results[0].Cached {
		t.Fatalf("refresh lookup: code %d cached %v, want fresh", code, vr.Results[0].Cached)
	}
	if got := counting.rootFetches(domain); got != 2 {
		t.Fatalf("refresh did not re-crawl: %d crawls, want 2", got)
	}
}

func TestQueueFullSheds429(t *testing.T) {
	w, _, _ := testVerifier(t)
	gate := &gatedFetcher{inner: w, started: make(chan string, 8), release: make(chan struct{})}
	_, ts := newTestServer(t, Config{Fetcher: gate, Workers: 1, QueueDepth: -1})

	domain := pickDomain(t, false)
	errc := make(chan error, 1)
	go func() {
		code, _, _ := postVerify(t, ts.URL, VerifyRequest{Domain: domain})
		if code != http.StatusOK {
			errc <- fmt.Errorf("gated request finished with %d", code)
			return
		}
		errc <- nil
	}()
	// Wait until the first request holds the only worker slot (its
	// crawl reached the fetcher).
	select {
	case <-gate.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the fetcher")
	}

	code, _, hdr := postVerify(t, ts.URL, VerifyRequest{Domain: "other.example"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload request got %d, want 429", code)
	}
	// The hint is derived from the request-duration mean, floored at 1 s
	// — always a positive integer number of seconds.
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("429 Retry-After = %q, want an integer >= 1", hdr.Get("Retry-After"))
	}

	close(gate.release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestGracefulDrain(t *testing.T) {
	w, _, v := testVerifier(t)
	gate := &gatedFetcher{inner: w, started: make(chan string, 8), release: make(chan struct{})}
	s, err := New(v, Config{Fetcher: gate, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := httptest.NewServer(s.Handler())
	// Not using t.Cleanup(Close): the test closes it via the drain path.

	domain := pickDomain(t, true)
	type result struct {
		code int
		resp VerifyResponse
	}
	resc := make(chan result, 1)
	go func() {
		code, resp, _ := postVerify(t, httpSrv.URL, VerifyRequest{Domain: domain})
		resc <- result{code, resp}
	}()
	select {
	case <-gate.started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never reached the fetcher")
	}

	// Begin draining: readiness flips, new verify traffic is rejected…
	s.SetDraining(true)
	if resp, err := http.Get(httpSrv.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining /readyz = %d, want 503", resp.StatusCode)
		}
	}
	if code, _, _ := postVerify(t, httpSrv.URL, VerifyRequest{Domain: "other.example"}); code != http.StatusServiceUnavailable {
		t.Errorf("verify while draining = %d, want 503", code)
	}

	// …while the admitted request survives the drain and completes.
	drained := make(chan struct{})
	go func() {
		httpSrv.Config.Shutdown(context.Background())
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Shutdown returned while a request was still in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate.release)
	r := <-resc
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain, want 200", r.code)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the last request drained")
	}
	httpSrv.Close()
}

func TestSwapModelHotReload(t *testing.T) {
	w, snapshot, v := testVerifier(t)
	gate := &gatedFetcher{inner: w, started: make(chan string, 8), release: make(chan struct{})}
	s, ts := newTestServer(t, Config{Fetcher: gate, Workers: 2})

	fpOld := v.Fingerprint()
	if got := s.ModelFingerprint(); got != fpOld {
		t.Fatalf("initial fingerprint %q, want %q", got, fpOld)
	}

	// Admit a request on the old model and hold its crawl at the gate.
	domain := pickDomain(t, true)
	type result struct {
		code int
		resp VerifyResponse
	}
	resc := make(chan result, 1)
	go func() {
		code, resp, _ := postVerify(t, ts.URL, VerifyRequest{Domain: domain})
		resc <- result{code, resp}
	}()
	select {
	case <-gate.started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never reached the fetcher")
	}

	// Reload: a differently configured model has a different identity.
	v2, err := core.Train(snapshot, core.Options{Classifier: core.NBM, Terms: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Fingerprint() == fpOld {
		t.Fatal("test needs two distinct models")
	}
	s.SwapModel(v2)
	if got := s.ModelFingerprint(); got != v2.Fingerprint() {
		t.Errorf("fingerprint after swap = %q, want %q", got, v2.Fingerprint())
	}

	// The in-flight request completes on the model it was admitted
	// under — a reload never drops or corrupts admitted work.
	close(gate.release)
	r := <-resc
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request failed with %d across reload", r.code)
	}
	if r.resp.Model != fpOld {
		t.Errorf("in-flight request served by model %q, want the pre-reload %q", r.resp.Model, fpOld)
	}

	// New requests are served by — and cached under — the new model.
	code, resp, _ := postVerify(t, ts.URL, VerifyRequest{Domain: domain})
	if code != http.StatusOK || resp.Model != v2.Fingerprint() {
		t.Errorf("post-reload request: code %d model %q, want 200 on %q", code, resp.Model, v2.Fingerprint())
	}
	if resp.Results[0].Cached {
		t.Error("post-reload request served the old model's cached verdict")
	}
}

func TestHealthzReadyz(t *testing.T) {
	w, _, v := testVerifier(t)
	_, ts := newTestServer(t, Config{Fetcher: w})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Model  string `json:"model"`
		Build  struct {
			Version   string `json:"version"`
			GoVersion string `json:"goVersion"`
		} `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Model != v.Fingerprint() || health.Build.Version == "" {
		t.Errorf("unexpected /healthz payload: %+v", health)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Status  string `json:"status"`
		Model   string `json:"model"`
		Sources []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
		} `json:"sources"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ready.Status != "ready" || ready.Model != v.Fingerprint() {
		t.Errorf("unexpected /readyz payload: %+v", ready)
	}
	// The evidence backends report health on readiness, in fusion order.
	if len(ready.Sources) != 3 {
		t.Fatalf("/readyz lists %d sources, want 3: %+v", len(ready.Sources), ready.Sources)
	}
	for i, want := range []string{"text", "network", "registry"} {
		if ready.Sources[i].Name != want || !ready.Sources[i].Healthy {
			t.Errorf("source %d = %+v, want healthy %q", i, ready.Sources[i], want)
		}
	}
}

func TestRequestDomainsNormalization(t *testing.T) {
	w, _, v := testVerifier(t)
	s, err := New(v, Config{Fetcher: w})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.cfg.requestDomains(VerifyRequest{Domains: []string{
		"HTTPS://WWW.Example.COM/checkout?x=1", "example.com:443", "example.com", " other.net ",
	}})
	if err != nil {
		t.Fatal(err)
	}
	// A :port variant normalizes to the same domain (one crawl, one
	// cache key), so "example.com:443" dedupes against "example.com".
	want := []string{"example.com", "other.net"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("requestDomains = %v, want %v", got, want)
	}
}

// TestRequestTimeoutClamp: a client budget is capped at MaxTimeout
// before it becomes a time.Duration. Budgets whose millisecond
// conversion overflows int64 once wrapped to a negative deadline that
// slipped under the cap, and every domain came back "not assessed".
func TestRequestTimeoutClamp(t *testing.T) {
	cfg := Config{DefaultTimeout: time.Second, MaxTimeout: 3 * time.Second}.withDefaults()
	for _, tc := range []struct {
		ms   string
		want time.Duration
	}{
		{"9223372036855", cfg.MaxTimeout},
		{"10000000000000", cfg.MaxTimeout},
		{strconv.FormatInt(math.MaxInt64, 10), cfg.MaxTimeout},
		{"3001", cfg.MaxTimeout},
		{"3000", 3 * time.Second},
		{"250", 250 * time.Millisecond},
		{"0", time.Second},
		{"-5", time.Second},
	} {
		body := `{"domain":"a.example","timeoutMs":` + tc.ms + `}`
		call, err := cfg.parseVerify(httptest.NewRecorder(), io.NopCloser(strings.NewReader(body)))
		if err != nil {
			t.Fatalf("timeoutMs %s: %v", tc.ms, err)
		}
		if call.timeout != tc.want {
			t.Errorf("timeoutMs %s: deadline %v, want %v", tc.ms, call.timeout, tc.want)
		}
	}

	// Over HTTP, the largest budget is served under MaxTimeout.
	w, _, _ := testVerifier(t)
	_, ts := newTestServer(t, Config{Fetcher: w})
	code, resp, _ := postVerify(t, ts.URL, VerifyRequest{Domain: pickDomain(t, true), TimeoutMs: math.MaxInt64})
	if code != http.StatusOK || len(resp.Results) != 1 || resp.Results[0].Error != "" {
		t.Fatalf("verify with timeoutMs=MaxInt64: status %d, results %+v", code, resp.Results)
	}
}

func TestStripPort(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"example.com", "example.com"},
		{"example.com:8443", "example.com"},
		{"example.com:", "example.com"},
		{"example.com:http", "example.com:http"}, // not a port: kept
		{"[::1]:8443", "[::1]"},                  // bracketed IPv6 + port
		{"[2001:db8::1]", "[2001:db8::1]"},
		{"::1", "::1"}, // bare IPv6 literal survives
		{"2001:db8::443", "2001:db8::443"},
	} {
		if got := stripPort(tc.in); got != tc.want {
			t.Errorf("stripPort(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestNormalizeDomainIdempotent: one call reaches the name a second
// call would leave unchanged, for prefixes and ports that only show
// once an outer layer is stripped.
func TestNormalizeDomainIdempotent(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"www.www.example", "example"},
		{"https://WWW.www.Example/x", "example"},
		{"www. example", "example"},
		{"www.example :443", "example"},
		{"www.[::1]:8443", "[::1]"},
		{"http://https://pharmacy.example", "pharmacy.example"},
		{"https://http://pharmacy.example", "pharmacy.example"},
		{"www. [::1]:8443", "[::1]"},
		{"www.", ""},
	} {
		got := normalizeDomain(tc.in)
		if got != tc.want {
			t.Errorf("normalizeDomain(%q) = %q, want %q", tc.in, got, tc.want)
		}
		if again := normalizeDomain(got); again != got {
			t.Errorf("normalizeDomain(%q) = %q, not a fixed point (%q)", tc.in, got, again)
		}
	}
}

// TestNormalizeDomainLinear: a request body may hold a megabyte-long
// domain, and normalizeDomain runs before admission control, so its
// cost must stay linear. A pass over the whole string per stripped
// prefix would scan about 10¹¹ bytes for the first input (tens of
// seconds); a linear pass takes milliseconds.
func TestNormalizeDomainLinear(t *testing.T) {
	const reps = 1 << 18
	start := time.Now()
	for _, tc := range []struct{ in, want string }{
		{strings.Repeat("www.", reps) + "example", "example"},
		{"https://" + strings.Repeat(" www.", reps) + "example:443/x", "example"},
		{strings.Repeat("http://https://", reps/4) + "example", "example"},
		{"www.example" + strings.Repeat(" /", reps), "example"},
		{"example" + strings.Repeat(":1 ", reps), "example" + strings.Repeat(":1 ", reps-1) + ":1"},
	} {
		if got := normalizeDomain(tc.in); got != tc.want {
			t.Errorf("normalizeDomain(%.40q…) = %.40q…, want %.40q…", tc.in, got, tc.want)
		}
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("normalizing the long domains took %v; the cost is no longer linear", el)
	}
}

// FuzzNormalizeDomain: request bodies are written by adversaries, and
// the sweep re-normalizes names the server stored normalized. So
// normalizeDomain must not panic, must be idempotent, and must leave
// no path and no port that stripPort would remove.
func FuzzNormalizeDomain(f *testing.F) {
	f.Fuzz(func(t *testing.T, d string) {
		n := normalizeDomain(d)
		if again := normalizeDomain(n); again != n {
			t.Fatalf("normalizeDomain(%q) = %q, but normalizing that gives %q", d, n, again)
		}
		if strings.Contains(n, "/") {
			t.Fatalf("normalizeDomain(%q) = %q keeps a path", d, n)
		}
		if stripPort(n) != n {
			t.Fatalf("normalizeDomain(%q) = %q keeps a port", d, n)
		}
	})
}

// FuzzVerifyRequest drives the parsing a /v1/verify body goes through
// before admission (parseVerify) with adversarial bodies. Whatever the
// body, an accepted request names 1..MaxBatch distinct, non-empty,
// normalized domains and runs under a deadline in (0, MaxTimeout].
//
// The body is pad bytes of leading whitespace, which JSON skips, then
// body: a corpus entry of a few bytes can describe a body over
// maxVerifyBody without adding a megabyte to the repository.
func FuzzVerifyRequest(f *testing.F) {
	cfg := Config{MaxBatch: 4, DefaultTimeout: 2 * time.Second, MaxTimeout: 1234567 * time.Microsecond}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte, pad uint32) {
		in := io.MultiReader(bytes.NewReader(bytes.Repeat([]byte{' '}, int(pad%(2*maxVerifyBody)))), bytes.NewReader(body))
		call, err := cfg.parseVerify(httptest.NewRecorder(), io.NopCloser(in))
		if err != nil {
			return
		}
		if n := len(call.domains); n < 1 || n > cfg.MaxBatch {
			t.Fatalf("accepted %d domains, want 1..%d", n, cfg.MaxBatch)
		}
		seen := map[string]bool{}
		for _, d := range call.domains {
			if d == "" || normalizeDomain(d) != d {
				t.Fatalf("domain %q is empty or not normalized", d)
			}
			if seen[d] {
				t.Fatalf("domain %q accepted twice", d)
			}
			seen[d] = true
		}
		if call.timeout <= 0 || call.timeout > cfg.MaxTimeout {
			t.Fatalf("deadline %v outside (0, %v]", call.timeout, cfg.MaxTimeout)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		var obj json.RawMessage
		if err := dec.Decode(&obj); err != nil {
			t.Fatalf("accepted a body that is not a JSON value: %v", err)
		}
		if rest := body[dec.InputOffset():]; len(bytes.TrimLeft(rest, " \t\r\n")) != 0 {
			t.Fatalf("accepted %q after the object", rest)
		}
	})
}

// TestParseVerifyRejectsTrailingData: a /v1/verify body is one JSON
// object and optional white space. Anything after the object — the
// trailing-garbage fuzz seed, or a second concatenated request — is a
// client error, not silently dropped.
func TestParseVerifyRejectsTrailingData(t *testing.T) {
	cfg := Config{}.withDefaults()
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"domain":"a.example"}`, true},
		{"{\"domain\":\"a.example\"}\n", true},
		{"  {\"domain\":\"a.example\"} \r\n\t ", true},
		{`{"domain":"a.example"}garbage{"domains":`, false}, // the trailing-garbage seed
		{`{"domain":"a.example"}{"domain":"b.example"}`, false},
		{`{"domain":"a.example"} 1`, false},
	} {
		call, err := cfg.parseVerify(httptest.NewRecorder(), io.NopCloser(strings.NewReader(tc.body)))
		if tc.ok && (err != nil || len(call.domains) != 1 || call.domains[0] != "a.example") {
			t.Errorf("%q: got %v, %v; want [a.example]", tc.body, call.domains, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%q: accepted as %v, want an error", tc.body, call.domains)
		}
	}
}

// TestConfigCrawlDefaultsMergeFieldwise: customizing one crawl-budget
// field must keep the serving defaults of the rest — the old code
// replaced the whole struct only when MaxPages, AttemptBudget and
// Retry.MaxAttempts were all zero, silently reverting a partly
// customized budget to the crawler's batch-scale defaults.
func TestConfigCrawlDefaultsMergeFieldwise(t *testing.T) {
	cfg := Config{Crawl: crawler.Config{FetchTimeout: 123 * time.Millisecond}}.withDefaults()
	if cfg.Crawl.FetchTimeout != 123*time.Millisecond {
		t.Errorf("customized FetchTimeout overwritten: %v", cfg.Crawl.FetchTimeout)
	}
	if cfg.Crawl.MaxPages != 50 || cfg.Crawl.AttemptBudget != 150 ||
		cfg.Crawl.Retry.MaxAttempts != 2 || cfg.Crawl.FailureBudget != 20 {
		t.Errorf("one customized field discarded the other serving defaults: %+v", cfg.Crawl)
	}

	// Explicit negatives disable a budget (the crawler treats
	// non-positive as unbounded/off) and must survive defaulting.
	cfg = Config{Crawl: crawler.Config{MaxPages: 7, AttemptBudget: -1}}.withDefaults()
	if cfg.Crawl.MaxPages != 7 || cfg.Crawl.AttemptBudget != -1 {
		t.Errorf("explicit values overwritten: %+v", cfg.Crawl)
	}
	if cfg.Crawl.Retry.MaxAttempts != 2 {
		t.Errorf("unset retry not defaulted alongside set fields: %+v", cfg.Crawl.Retry)
	}
}

func TestRetryAfterDerivedFromRequestMean(t *testing.T) {
	w, _, v := testVerifier(t)
	s, err := New(v, Config{Fetcher: w})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	if got := s.retryAfterSecs(); got != 1 {
		t.Errorf("cold server Retry-After = %d, want the 1 s floor", got)
	}
	s.met.requestSecs.observe(0.05)
	if got := s.retryAfterSecs(); got != 1 {
		t.Errorf("sub-second mean Retry-After = %d, want the 1 s floor", got)
	}
	s.met.requestSecs.observe(8.95) // mean now (0.05+8.95)/2 = 4.5 s
	if got := s.retryAfterSecs(); got != 5 {
		t.Errorf("Retry-After = %d, want ceil(4.5 s mean) = 5", got)
	}
}

// limitedFetcher passes the first allow fetches through and blocks the
// rest until release is closed; blocked is closed when the first fetch
// hits the gate.
type limitedFetcher struct {
	inner   crawler.Fetcher
	allow   atomic.Int32
	n       atomic.Int32
	once    sync.Once
	blocked chan struct{}
	release chan struct{}
}

func (l *limitedFetcher) Fetch(domain, path string) (string, error) {
	if l.n.Add(1) > l.allow.Load() {
		l.once.Do(func() { close(l.blocked) })
		<-l.release
	}
	return l.inner.Fetch(domain, path)
}

// multiPageDomain returns a domain whose site has at least three pages,
// so a crawl can be interrupted with the root collected and the
// frontier still pending.
func multiPageDomain(t *testing.T) string {
	t.Helper()
	_, snapshot, _ := testVerifier(t)
	for _, p := range snapshot.Pharmacies {
		if p.Pages >= 3 {
			return p.Domain
		}
	}
	t.Fatal("test world has no multi-page site")
	return ""
}

// TestPartialCrawlServesDegradedVerdict: a crawl interrupted by the
// serving deadline after collecting pages must yield a verdict over the
// partial snapshot (marked Partial, never cached) instead of the
// pre-fix behavior of discarding the pages and failing the domain.
func TestPartialCrawlServesDegradedVerdict(t *testing.T) {
	w, _, v := testVerifier(t)
	domain := multiPageDomain(t)

	lf := &limitedFetcher{inner: w, blocked: make(chan struct{}), release: make(chan struct{})}
	lf.allow.Store(2) // robots.txt + the root page, then the gate closes
	s, err := New(v, Config{Fetcher: lf, MaxTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// The flight's detached context expires at MaxTimeout while the
	// crawl is gated; the caller itself has unlimited budget and gets
	// the degraded verdict.
	got := s.verifyDomain(context.Background(), s.model.Load(), domain, false)
	if got.Error != "" {
		t.Fatalf("interrupted crawl failed the domain instead of degrading: %+v", got)
	}
	if !got.Partial {
		t.Fatalf("verdict over an interrupted crawl not marked partial: %+v", got)
	}
	if got.Pages == 0 || len(got.Sources) == 0 {
		t.Fatalf("partial verdict missing pages or source contributions: %+v", got)
	}
	if got.Crawl == nil || got.Crawl.Cancels == 0 {
		t.Errorf("partial verdict's crawl telemetry does not record the interruption: %+v", got.Crawl)
	}
	// Each verified domain counts exactly one outcome: the partial
	// verdict is "partial", not also "crawled".
	if got := domainOutcomes(s); len(got) != 1 || got["partial"] != 1 {
		t.Errorf("domain outcomes after one partial verdict = %v, want exactly partial:1", got)
	}

	// A partial verdict must not be cached: with the gate open the next
	// request re-crawls in full and only that complete verdict sticks.
	lf.allow.Store(1 << 30)
	close(lf.release)
	second := s.verifyDomain(context.Background(), s.model.Load(), domain, false)
	if second.Cached {
		t.Fatal("partial verdict was served from the cache")
	}
	if second.Partial || second.Error != "" {
		t.Fatalf("unimpeded re-crawl still degraded: %+v", second)
	}
	if third := s.verifyDomain(context.Background(), s.model.Load(), domain, false); !third.Cached {
		t.Error("complete verdict not cached")
	}
	want := map[string]uint64{"partial": 1, "crawled": 1, "cache_hit": 1}
	if got := domainOutcomes(s); !reflect.DeepEqual(got, want) {
		t.Errorf("domain outcomes after three verdicts = %v, want %v", got, want)
	}
}

// domainOutcomes reads the domains metric as outcome → count.
func domainOutcomes(s *Server) map[string]uint64 {
	keys, counts := s.met.domains.snapshot()
	out := make(map[string]uint64, len(keys))
	for i, k := range keys {
		out[k] = counts[i].Value()
	}
	return out
}

// TestInterruptedCrawlWithNoPagesErrors: an interruption before any
// page was collected is still an error — and the error wraps the real
// cancellation cause instead of formatting a nil ctx.Err().
func TestInterruptedCrawlWithNoPagesErrors(t *testing.T) {
	w, _, v := testVerifier(t)
	domain := pickDomain(t, true)
	gate := &gatedFetcher{inner: w, started: make(chan string, 8), release: make(chan struct{})}
	s, err := New(v, Config{Fetcher: gate})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.assessObs(ctx, s.model.Load(), domain)
		errc <- err
	}()
	select {
	case <-gate.started: // robots.txt is gated: zero pages collected
	case <-time.After(5 * time.Second):
		t.Fatal("crawl never reached the fetcher")
	}
	cancel()
	aerr := <-errc
	close(gate.release)

	if aerr == nil {
		t.Fatal("zero-page interrupted crawl produced no error")
	}
	if !errors.Is(aerr, context.Canceled) {
		t.Errorf("error %v does not wrap the cancellation cause", aerr)
	}
	if !strings.Contains(aerr.Error(), "interrupted") {
		t.Errorf("error %q does not say the crawl was interrupted", aerr)
	}
	if strings.Contains(aerr.Error(), "%!w") {
		t.Errorf("error %q formatted a nil wrap target", aerr)
	}
}

// assertMatchesOffline pins one served fused verdict against the
// offline pipeline's assessment of the same observation.
func assertMatchesOffline(t *testing.T, got DomainVerdict, want core.Assessment) {
	t.Helper()
	if got.Legitimate != want.Legitimate || got.TextProb != want.TextProb ||
		got.TrustScore != want.TrustScore || got.NetworkProb != want.NetworkProb ||
		got.Rank != want.Rank {
		t.Errorf("online verdict %+v disagrees with offline assessment %+v", got, want)
	}
	// The response itemizes exactly the contributing backends, with the
	// probabilities the fused fields report.
	if len(got.Sources) != 2 || got.Sources[0].Name != "text" || got.Sources[1].Name != "network" ||
		got.Sources[0].Prob != got.TextProb || got.Sources[1].Prob != got.NetworkProb {
		t.Errorf("sources %+v don't itemize the text+network fusion", got.Sources)
	}
}

// TestFusedVerdictMatchesOfflinePipeline: with the dirty threshold at 1
// (recompute after every graph change), serving verdicts are
// bit-identical to the offline ensemble over the same crawl set — the
// staleness contract's convergence guarantee.
func TestFusedVerdictMatchesOfflinePipeline(t *testing.T) {
	w, snapshot, v := testVerifier(t)
	_, ts := newTestServer(t, Config{Fetcher: w, Workers: 2, GraphDirtyThreshold: 1})

	byDomain := map[string]dataset.Pharmacy{}
	for _, p := range snapshot.Pharmacies {
		byDomain[p.Domain] = p
	}
	d1, d2 := pickDomain(t, true), pickDomain(t, false)

	// First domain: the offline equivalent is a batch of one.
	code, resp, _ := postVerify(t, ts.URL, VerifyRequest{Domain: d1})
	if code != http.StatusOK || resp.Results[0].Error != "" {
		t.Fatalf("verify %s: code %d, %+v", d1, code, resp.Results)
	}
	assertMatchesOffline(t, resp.Results[0], v.Assess([]dataset.Pharmacy{byDomain[d1]})[0])

	// Second domain: the live graph now holds both crawls, so the
	// offline equivalent is the two-domain batch.
	code, resp, _ = postVerify(t, ts.URL, VerifyRequest{Domain: d2})
	if code != http.StatusOK || resp.Results[0].Error != "" {
		t.Fatalf("verify %s: code %d, %+v", d2, code, resp.Results)
	}
	assertMatchesOffline(t, resp.Results[0], v.Assess([]dataset.Pharmacy{byDomain[d1], byDomain[d2]})[1])
}

// TestRegistryEvidenceJoinsFusion: a configured registry backend votes
// into the fusion and its contribution is itemized; the decision is the
// equal-weight average over every recorded vote.
func TestRegistryEvidenceJoinsFusion(t *testing.T) {
	w, _, _ := testVerifier(t)
	domain := pickDomain(t, false)
	_, ts := newTestServer(t, Config{
		Fetcher:  w,
		Registry: NewStaticRegistry(map[string]bool{domain: true}),
	})

	code, resp, _ := postVerify(t, ts.URL, VerifyRequest{Domain: domain})
	if code != http.StatusOK || resp.Results[0].Error != "" {
		t.Fatalf("verify: code %d, %+v", code, resp.Results)
	}
	got := resp.Results[0]
	if len(got.Sources) != 3 || got.Sources[2].Name != "registry" || got.Sources[2].Prob != 1 {
		t.Fatalf("sources %+v, want text+network plus a registry vote of 1", got.Sources)
	}
	var probs []float64
	for _, c := range got.Sources {
		probs = append(probs, c.Prob)
	}
	if want := core.FusedLegitimate(probs...); got.Legitimate != want {
		t.Errorf("Legitimate = %v, want the fused average rule (%v) over %+v", got.Legitimate, want, got.Sources)
	}

	// An unregistered domain keeps the two-source fusion.
	other := pickDomain(t, true)
	if other != domain {
		_, resp, _ = postVerify(t, ts.URL, VerifyRequest{Domain: other})
		if len(resp.Results[0].Sources) != 2 {
			t.Errorf("unregistered domain fused %+v, want text+network only", resp.Results[0].Sources)
		}
	}
}

// TestConcurrentServingFoldsAndRefreshes hammers the serving path with
// concurrent re-crawls (Refresh bypasses the cache, so every request
// folds into the live graph) while the dirty threshold of 1 and a fast
// background tick force TrustRank recomputes to race the folds. It
// exists to run under -race.
func TestConcurrentServingFoldsAndRefreshes(t *testing.T) {
	w, _, _ := testVerifier(t)
	s, ts := newTestServer(t, Config{
		Fetcher: w, Workers: 8, QueueDepth: 1024,
		GraphDirtyThreshold: 1, GraphRefreshInterval: time.Millisecond,
	})

	var domains []string
	for d := range w.Labels() {
		domains = append(domains, d)
		if len(domains) == 6 {
			break
		}
	}
	var (
		wg  sync.WaitGroup
		bad atomic.Int32
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				d := domains[(g+i)%len(domains)]
				code, vr, _ := postVerify(t, ts.URL, VerifyRequest{Domain: d, Refresh: true})
				if code != http.StatusOK || len(vr.Results) != 1 || vr.Results[0].Error != "" {
					bad.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if bad.Load() > 0 {
		t.Fatalf("%d of 32 concurrent refresh requests failed", bad.Load())
	}
	if s.graph.snap.Load() == nil {
		t.Fatal("no score snapshot after concurrent serving")
	}
	if s.met.graphRefreshes.Value() == 0 {
		t.Error("no TrustRank refreshes despite a dirty threshold of 1")
	}
	// Concurrent same-domain refreshes share a flight, so the fold count
	// is between the domain count and the request count.
	if st := s.graph.live.Stats(); st.Folds < uint64(len(domains)) {
		t.Errorf("folds = %d, want at least one per domain (%d)", st.Folds, len(domains))
	}
}
