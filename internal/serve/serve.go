// Package serve implements the online verification service: a
// long-lived HTTP server that answers "is this pharmacy legitimate?"
// for a URL a user is looking at *right now*, by running the full
// on-demand pipeline — crawl the domain, preprocess the text, fuse the
// evidence backends over the observation, rank the batch — while the
// user waits. It is the consumer-facing deployment shape the batch
// pipeline feeds: train offline, snapshot the model, serve it here.
//
// Production shape:
//
//   - Evidence fusion: the verdict is an ensemble over ordered
//     EvidenceSource backends — the text classifier, the TrustRank
//     network model over an incrementally maintained fleet-wide link
//     graph, and a pluggable registry lookup — with every response
//     itemizing the sources that contributed. The link graph is
//     bounded and folded from every on-demand crawl; scores refresh on
//     a dirty threshold, on cold domains, and on a background tick —
//     never per request.
//   - Admission control: a bounded worker pool plus a bounded wait
//     queue; beyond that, requests are shed with 429 + Retry-After so
//     overload degrades into fast rejections, not unbounded latency.
//   - Result caching: a TTL + LRU verdict cache keyed by (model
//     fingerprint, domain); a model reload implicitly invalidates the
//     previous model's verdicts.
//   - Singleflight: concurrent requests for the same uncached domain
//     share one crawl. The crawl runs detached from any single caller's
//     deadline (bounded by MaxTimeout), so an impatient leader cannot
//     fail patient followers.
//   - Per-request deadlines derived from the client's requested timeout
//     capped by the server's maximum.
//   - Hot model reload: SwapModel atomically replaces the verifier;
//     in-flight requests finish on the model they started with.
//   - Observability: /metrics in Prometheus text format (zero deps),
//     /healthz (liveness + build info), /readyz (readiness + model
//     identity).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pharmaverify/internal/buildinfo"
	"pharmaverify/internal/core"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/parallel"
	"pharmaverify/internal/textproc"
)

// Config configures a Server.
type Config struct {
	// Fetcher retrieves pages for on-demand crawls (required): a live
	// crawler.HTTPFetcher in production, a webgen.World or any other
	// deterministic Fetcher in tests.
	Fetcher crawler.Fetcher
	// Crawl is the per-request crawl budget template. Unset (zero)
	// fields are defaulted field-by-field to a serving-appropriate
	// budget: MaxPages 50, AttemptBudget 150, 2 fetch attempts per
	// page, 5 s fetch timeout, failure budget 20 — far tighter than the
	// batch pipeline's paper-scale crawl, because a user is waiting.
	// Customizing one field never discards the defaults of the rest; to
	// explicitly disable a budget, set it negative (the crawler treats
	// non-positive AttemptBudget/FailureBudget as unbounded/off).
	Crawl crawler.Config
	// Workers bounds concurrently served verify requests (<= 0: the
	// shared parallel default — PHARMAVERIFY_WORKERS / SetDefault, then
	// GOMAXPROCS).
	Workers int
	// BatchWorkers bounds the fan-out of one batch request's domains
	// (default 4). Keeping it separate from — and much smaller than —
	// Workers bounds total crawl concurrency at Workers × BatchWorkers;
	// fanning batches out under Workers itself would square it.
	BatchWorkers int
	// QueueDepth bounds requests waiting for a worker slot beyond the
	// Workers in service (default 64; negative: no waiting, shed
	// immediately).
	QueueDepth int
	// CacheSize bounds the verdict cache (entries, default 1024).
	CacheSize int
	// CacheTTL is how long a verdict stays fresh (default 15 min).
	CacheTTL time.Duration
	// DefaultTimeout is the per-request deadline when the client does
	// not ask for one (default 30 s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default
	// 2×DefaultTimeout). The effective per-request deadline is
	// min(client timeout, MaxTimeout), never more.
	MaxTimeout time.Duration
	// MaxBatch bounds the domains of one request (default 64).
	MaxBatch int

	// GraphMaxNodes bounds the distinct domains of the live link graph
	// beyond the model's training graph (default 100 000); once
	// saturated, new names are dropped and the network source abstains
	// for domains it could not admit.
	GraphMaxNodes int
	// GraphMaxOut caps the outbound endpoints folded per crawl
	// (default 200).
	GraphMaxOut int
	// GraphDirtyThreshold is the number of graph-changing folds that
	// triggers a TrustRank recompute (default 16; 1 recomputes after
	// every change). A served domain missing from the current score
	// snapshot always forces a refresh regardless of the threshold.
	GraphDirtyThreshold int
	// GraphRefreshInterval is the background refresh tick bounding
	// score staleness under sparse traffic (0 = request-driven
	// refreshes only). Servers with a tick must be Closed.
	GraphRefreshInterval time.Duration
	// Registry is the optional registry-lookup evidence backend; nil
	// leaves the registry source permanently abstaining.
	Registry RegistryLookup

	// SourceTimeout bounds one evidence-source assessment (default 2 s;
	// negative = unbounded). A source that blows its deadline is
	// recorded as a breaker failure and the verdict degrades to the
	// remaining sources.
	SourceTimeout time.Duration
	// SourceConcurrency is the per-source bulkhead: at most this many
	// assessments of one source run at once (default 8). Beyond it,
	// calls shed immediately — one hung backend occupies its own slots,
	// never the daemon's worker pool.
	SourceConcurrency int
	// BreakerWindow is the rolling outcome window of each source's
	// circuit breaker (default 16 assessments).
	BreakerWindow int
	// BreakerFailures is the failure count within the window that opens
	// the breaker (default 8; clamped to BreakerWindow).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker fast-fails before
	// admitting half-open probes (default 10 s), measured on the
	// injectable clock.
	BreakerCooldown time.Duration
	// BreakerProbes is the consecutive half-open successes that close
	// the breaker again (default 2).
	BreakerProbes int
	// MinEvidence is the fusion quorum: a live verdict needs at least
	// this many contributing sources (default 1). Below it, the request
	// falls back to a stale cached verdict (or errors).
	MinEvidence int
	// MaxStale is the stale-serve budget: when live assessment fails
	// entirely, the cache may serve an expired verdict up to this long
	// past its TTL, marked `"stale":true` (default 1 h; negative
	// disables stale serving).
	MaxStale time.Duration
	// JitterSeed seeds the ±20% jitter applied to every background
	// graph-refresh tick so fleet-wide refreshes desynchronize
	// (0 = derived from the wall clock at startup).
	JitterSeed int64

	// CorpusMaxDomains bounds the known-domain corpus the continuous
	// re-verification scheduler sweeps (default 100 000). Once full, new
	// domains are not recorded; existing members keep being re-verified.
	CorpusMaxDomains int

	// now is the clock, injectable for cache-TTL and breaker tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	// The crawl budget merges field-by-field: a caller setting just
	// FetchTimeout must not silently lose the rest of the serving
	// budget (and fall back to the crawler's 200-page, unbudgeted
	// defaults).
	if c.Crawl.MaxPages == 0 {
		c.Crawl.MaxPages = 50
	}
	if c.Crawl.AttemptBudget == 0 {
		c.Crawl.AttemptBudget = 150
	}
	if c.Crawl.Retry.MaxAttempts == 0 {
		c.Crawl.Retry.MaxAttempts = 2
	}
	if c.Crawl.FetchTimeout == 0 {
		c.Crawl.FetchTimeout = 5 * time.Second
	}
	if c.Crawl.FailureBudget == 0 {
		c.Crawl.FailureBudget = 20
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = 15 * time.Minute
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * c.DefaultTimeout
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.GraphMaxNodes <= 0 {
		c.GraphMaxNodes = 100_000
	}
	if c.GraphMaxOut <= 0 {
		c.GraphMaxOut = 200
	}
	if c.GraphDirtyThreshold <= 0 {
		c.GraphDirtyThreshold = 16
	}
	if c.SourceTimeout == 0 {
		c.SourceTimeout = 2 * time.Second
	}
	if c.SourceConcurrency <= 0 {
		c.SourceConcurrency = 8
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 16
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 8
	}
	if c.BreakerFailures > c.BreakerWindow {
		c.BreakerFailures = c.BreakerWindow
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.BreakerProbes <= 0 {
		c.BreakerProbes = 2
	}
	if c.MinEvidence <= 0 {
		c.MinEvidence = 1
	}
	if c.MaxStale == 0 {
		c.MaxStale = time.Hour
	}
	if c.MaxStale < 0 {
		c.MaxStale = 0
	}
	if c.CorpusMaxDomains <= 0 {
		c.CorpusMaxDomains = 100_000
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// modelSlot is one loaded model: the verifier plus its precomputed
// identity. Requests capture the whole slot once at admission, so a
// concurrent SwapModel never mixes one model's verdicts with another's
// fingerprint.
type modelSlot struct {
	v           *core.Verifier
	fingerprint string
	loaded      time.Time
}

// Server is the verification service. Construct with New, mount
// Handler on an http.Server, swap models with SwapModel, and flip
// SetDraining before shutting the listener down.
type Server struct {
	cfg     Config
	fetch   crawler.Fetcher
	pre     *textproc.Preprocessor
	model   atomic.Pointer[modelSlot]
	shadow  atomic.Pointer[shadowState]
	cache   *verdictCache
	flight  *flightGroup
	adm     *admission
	met     *metrics
	agg     *crawler.Aggregator
	graph   *linkGraph
	corpus  *corpusStore
	sources []*guardedSource
	start   time.Time

	// extraMetrics are render hooks registered by companion subsystems
	// (the re-verification pipeline) so their gauges appear on this
	// server's /metrics endpoint.
	extraMu      sync.Mutex
	extraMetrics []func(io.Writer)

	stopc     chan struct{}
	closeOnce sync.Once
	draining  atomic.Bool
}

// New builds a Server around an initial trained model.
func New(model *core.Verifier, cfg Config) (*Server, error) {
	if model == nil {
		return nil, errors.New("serve: nil model")
	}
	if cfg.Fetcher == nil {
		return nil, errors.New("serve: Config.Fetcher is required")
	}
	cfg = cfg.withDefaults()
	met := newMetrics()
	graph := newLinkGraph(cfg, met)
	s := &Server{
		cfg:    cfg,
		fetch:  cfg.Fetcher,
		pre:    textproc.NewPreprocessor(),
		cache:  newVerdictCache(cfg.CacheSize, cfg.CacheTTL, cfg.MaxStale, cfg.now),
		flight: newFlightGroup(cfg.MaxTimeout),
		adm:    newAdmission(parallel.Workers(cfg.Workers), cfg.QueueDepth),
		met:    met,
		agg:    &crawler.Aggregator{},
		graph:  graph,
		corpus: newCorpusStore(cfg.CorpusMaxDomains),
		// The ordered evidence backends of a fused verdict, each behind
		// its own breaker + bulkhead + deadline guard. Order is
		// presentation only — every contributing source carries equal
		// weight in the fusion.
		sources: []*guardedSource{
			newGuardedSource(textSource{}, cfg, met),
			newGuardedSource(networkSource{graph: graph}, cfg, met),
			newGuardedSource(registrySource{lookup: cfg.Registry}, cfg, met),
		},
		stopc: make(chan struct{}),
		start: cfg.now(),
	}
	s.model.Store(&modelSlot{v: model, fingerprint: model.Fingerprint(), loaded: cfg.now()})
	if cfg.GraphRefreshInterval > 0 {
		go s.refreshLoop(cfg.GraphRefreshInterval)
	}
	return s, nil
}

// refreshLoop bounds link-graph score staleness under sparse traffic:
// request-driven refreshes fire on dirtiness or cold domains, the tick
// catches whatever dirtiness accumulated below the threshold. Each
// tick interval is jittered ±20% from a seeded stream so a fleet of
// daemons started together never synchronizes its refresh spikes.
func (s *Server) refreshLoop(every time.Duration) {
	seed := s.cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := newJitterRNG(seed)
	t := time.NewTimer(jitterInterval(rng, every))
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
			s.graph.refreshIfStale(s.model.Load().v, "")
			t.Reset(jitterInterval(rng, every))
		}
	}
}

// newJitterRNG builds the seeded stream behind the refresh jitter.
func newJitterRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// jitterInterval draws one tick interval in [0.8, 1.2)×every from the
// seeded stream.
func jitterInterval(rng *rand.Rand, every time.Duration) time.Duration {
	return time.Duration(float64(every) * (0.8 + 0.4*rng.Float64()))
}

// Close stops the background link-graph refresher (when
// GraphRefreshInterval is set). It is idempotent and does not affect
// in-flight requests — HTTP shutdown remains the listener's job.
func (s *Server) Close() { s.closeOnce.Do(func() { close(s.stopc) }) }

// SwapModel atomically replaces the served model (the SIGHUP hot-reload
// path). In-flight requests keep the slot they captured at admission;
// new requests see the new model immediately. The verdict cache needs
// no flush — its keys embed the fingerprint.
func (s *Server) SwapModel(v *core.Verifier) {
	s.model.Store(&modelSlot{v: v, fingerprint: v.Fingerprint(), loaded: s.cfg.now()})
	s.met.modelReloads.inc()
}

// ModelFingerprint reports the identity of the currently served model.
func (s *Server) ModelFingerprint() string { return s.model.Load().fingerprint }

// TrainingSketch returns the live model's training-corpus distribution
// snapshot (nil for models persisted before sketches existed) — the
// baseline the drift monitor compares fresh crawls against.
func (s *Server) TrainingSketch() *core.Sketch { return s.model.Load().v.TrainingSketch() }

// RegisterMetrics adds a render hook to /metrics. Companion subsystems
// (the continuous re-verification pipeline) register their own gauges
// and counters here so operators scrape one endpoint. Hooks run at the
// end of every /metrics render, in registration order.
func (s *Server) RegisterMetrics(fn func(io.Writer)) {
	if fn == nil {
		return
	}
	s.extraMu.Lock()
	s.extraMetrics = append(s.extraMetrics, fn)
	s.extraMu.Unlock()
}

// RecordReloadFailure counts one failed model hot-reload attempt (the
// daemon keeps serving the old model; the failure was previously only
// visible in the logs).
func (s *Server) RecordReloadFailure() { s.met.modelReloadFails.inc() }

// SetDraining flips the readiness state. While draining, /readyz
// returns 503 (load balancers stop routing) and new verify requests are
// rejected with 503; requests already admitted run to completion —
// http.Server.Shutdown provides the actual wait.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// CrawlStats returns a copy of the process-wide crawl telemetry
// aggregated over every on-demand crawl served so far, plus the crawl
// count.
func (s *Server) CrawlStats() (crawler.Stats, int) { return s.agg.Snapshot() }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/verify", s.handleVerify)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// VerifyRequest is the body of POST /v1/verify. Exactly one of Domain
// (single lookup) or Domains (batch) must be set.
type VerifyRequest struct {
	Domain  string   `json:"domain,omitempty"`
	Domains []string `json:"domains,omitempty"`
	// TimeoutMs is the client's time budget; the server caps it at its
	// configured maximum. 0 means the server default.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// Refresh bypasses the verdict cache (the verdict still refreshes
	// the cache afterwards).
	Refresh bool `json:"refresh,omitempty"`
}

// DomainVerdict is the verdict for one domain.
type DomainVerdict struct {
	Domain     string `json:"domain"`
	Legitimate bool   `json:"legitimate"`
	// Rank is the OPR legitimacy score (textProb + trustScore).
	Rank        float64 `json:"rank"`
	TextProb    float64 `json:"textProb"`
	TrustScore  float64 `json:"trustScore"`
	NetworkProb float64 `json:"networkProb"`
	// Pages is the number of pages the on-demand crawl collected.
	Pages int `json:"pages"`
	// Sources itemizes the evidence backends that contributed to this
	// verdict, in assessment order, with each one's P(legitimate) vote.
	Sources []SourceContribution `json:"sources,omitempty"`
	// Partial reports that the crawl was interrupted by the serving
	// deadline after collecting some pages: the verdict covers only the
	// collected snapshot and was not cached, so a later request re-crawls.
	Partial bool `json:"partial,omitempty"`
	// Stale reports that live assessment failed and this verdict is an
	// expired cache entry served under the stale-serve budget — honest
	// degradation instead of an error while the backends recover.
	Stale bool `json:"stale,omitempty"`
	// Cached reports that the verdict was served from the cache; Crawl
	// is then the telemetry of the original crawl.
	Cached bool           `json:"cached"`
	Crawl  *crawler.Stats `json:"crawl,omitempty"`
	// Error is set when this domain could not be assessed (the rest of
	// a batch is unaffected).
	Error string `json:"error,omitempty"`
}

// VerifyResponse is the body of a successful POST /v1/verify.
type VerifyResponse struct {
	// Model is the fingerprint of the model that produced the verdicts.
	Model   string          `json:"model"`
	Results []DomainVerdict `json:"results"`
	// Ranking lists the successfully assessed domains most-legitimate
	// first (the paper's OPR ordering over the request's batch).
	Ranking []string `json:"ranking,omitempty"`
}

// errorBody is the JSON error envelope of non-200 responses.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	start := s.cfg.now()
	code := http.StatusOK
	defer func() {
		s.met.requests.inc(fmt.Sprint(code))
		s.met.requestSecs.observe(s.cfg.now().Sub(start).Seconds())
	}()

	if r.Method != http.MethodPost {
		code = http.StatusMethodNotAllowed
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, code, errorBody{Error: "use POST"})
		return
	}
	if s.draining.Load() {
		code = http.StatusServiceUnavailable
		writeJSON(w, code, errorBody{Error: "server is draining"})
		return
	}

	var req VerifyRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		code = http.StatusBadRequest
		writeJSON(w, code, errorBody{Error: "malformed request: " + err.Error()})
		return
	}
	domains, err := s.requestDomains(req)
	if err != nil {
		code = http.StatusBadRequest
		writeJSON(w, code, errorBody{Error: err.Error()})
		return
	}

	// Admission: claim a worker slot or join the bounded queue. A full
	// queue is the backpressure signal — reject immediately with a
	// retry hint sized to the typical service time.
	if err := s.adm.acquire(r.Context()); err != nil {
		if errors.Is(err, errQueueFull) {
			s.met.queueReject.inc()
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
			writeJSON(w, code, errorBody{Error: "admission queue full, retry later"})
			return
		}
		code = statusForCtxErr(err)
		writeJSON(w, code, errorBody{Error: err.Error()})
		return
	}
	defer s.adm.release()

	// Per-request deadline: the client's budget capped by the server's,
	// layered on the connection context so a disconnect still cancels
	// the crawl.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// One model slot for the whole request: every domain of a batch is
	// judged by the same model even if a reload lands mid-request.
	slot := s.model.Load()

	// The fan-out is bounded by BatchWorkers, not Workers: this request
	// already holds one of the Workers admission slots, so using Workers
	// again here would let crawl concurrency reach Workers².
	verdicts := make([]DomainVerdict, len(domains))
	ctxErr := parallel.ForCtx(ctx, len(domains), s.cfg.BatchWorkers, func(i int) {
		verdicts[i] = s.verifyDomain(ctx, slot, domains[i], req.Refresh)
	})
	if ctxErr != nil {
		// The deadline (or a client disconnect) fired mid-batch: ForCtx
		// skipped the not-yet-dispatched indices, leaving zero-value
		// verdicts. Mark them as errors explicitly — a blank verdict
		// must never read as a real "illegitimate" ruling.
		for i := range verdicts {
			if verdicts[i].Domain == "" {
				s.met.domains.inc("error")
				verdicts[i] = DomainVerdict{Domain: domains[i], Error: "not assessed: " + ctxErr.Error()}
			}
		}
	}

	resp := VerifyResponse{Model: slot.fingerprint, Results: verdicts}
	if len(domains) > 1 {
		resp.Ranking = rankDomains(verdicts)
	}
	writeJSON(w, code, resp)
}

// retryAfterSecs sizes the 429 Retry-After hint to the typical service
// time: the running mean of the request-duration histogram, rounded
// up, floored at 1 s (the floor also covers a cold server with no
// completed requests yet).
func (s *Server) retryAfterSecs() int {
	if m := s.met.requestSecs.mean(); m > 1 {
		return int(math.Ceil(m))
	}
	return 1
}

// requestDomains validates and normalizes the request's domain list.
func (s *Server) requestDomains(req VerifyRequest) ([]string, error) {
	var domains []string
	if req.Domain != "" {
		domains = append(domains, req.Domain)
	}
	domains = append(domains, req.Domains...)
	if len(domains) == 0 {
		return nil, errors.New(`provide "domain" or "domains"`)
	}
	if len(domains) > s.cfg.MaxBatch {
		return nil, fmt.Errorf("batch of %d exceeds the maximum of %d", len(domains), s.cfg.MaxBatch)
	}
	seen := make(map[string]bool, len(domains))
	out := domains[:0]
	for _, d := range domains {
		d = normalizeDomain(d)
		if d == "" {
			return nil, errors.New("empty domain in request")
		}
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out, nil
}

// normalizeDomain canonicalizes one domain name the way the verify
// endpoint does — lowercase, scheme/www./path stripped, port removed —
// so cache keys, registry keys, corpus membership and re-verification
// sweeps all agree on a domain's identity. It is idempotent: the
// stripping steps repeat until none applies, so "www.www.example"
// becomes "example" in one call, not in two.
//
// Its cost is linear in len(d), which a request body sets. The steps
// at the ends, each O(1) beyond the bytes it removes, repeat first
// until none applies; only then are the path cut and the port
// stripped, which scan the string. That scan runs at most three
// times: after the first no '/' is left, the ends no longer change
// but for trailing space, and a port is stripped at most once.
func normalizeDomain(d string) string {
	d = strings.ToLower(d)
	for {
		n := strings.TrimSpace(d)
		n = strings.TrimPrefix(n, "http://")
		n = strings.TrimPrefix(n, "https://")
		n = strings.TrimPrefix(n, "www.")
		if len(n) < len(d) { // every step only removes bytes
			d = n
			continue
		}
		if i := strings.IndexByte(n, '/'); i >= 0 {
			n = n[:i]
		}
		n = stripPort(n)
		if len(n) == len(d) {
			return n
		}
		d = n
	}
}

// stripPort removes a trailing :port from a normalized host so
// "pharmacy.example:8443" and "pharmacy.example" share one
// cache/singleflight key (and cost one crawl). IPv6 literals survive:
// "[::1]:8443" → "[::1]", and a bare "::1" (multiple colons, no
// brackets) is left untouched. A suffix that is not a port (non-digit)
// is kept — it is part of whatever the caller sent.
func stripPort(d string) string {
	if strings.HasPrefix(d, "[") {
		if i := strings.IndexByte(d, ']'); i >= 0 {
			return d[:i+1]
		}
		return d
	}
	i := strings.LastIndexByte(d, ':')
	if i < 0 || strings.IndexByte(d, ':') != i {
		return d // no colon, or an unbracketed IPv6 literal
	}
	for _, c := range d[i+1:] {
		if c < '0' || c > '9' {
			return d
		}
	}
	return d[:i]
}

// rankDomains orders the batch's successful verdicts through
// core.RankAssessments — the same total order the offline OPR pipeline
// produces.
func rankDomains(verdicts []DomainVerdict) []string {
	as := make([]core.Assessment, 0, len(verdicts))
	for _, v := range verdicts {
		if v.Error != "" {
			continue
		}
		as = append(as, core.Assessment{Domain: v.Domain, Rank: v.Rank})
	}
	ranked := core.RankAssessments(as)
	out := make([]string, len(ranked))
	for i, a := range ranked {
		out[i] = a.Domain
	}
	return out
}

func statusForCtxErr(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusServiceUnavailable
}

// handleHealthz is the liveness probe: the process is up. It also
// reports build info and uptime, so `curl /healthz` identifies the
// running binary.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	slot := s.model.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"build":         buildinfo.Info(),
		"model":         slot.fingerprint,
		"uptimeSeconds": int64(s.cfg.now().Sub(s.start).Seconds()),
	})
}

// handleReadyz is the readiness probe: 200 with the served model's
// identity and per-source evidence health while accepting traffic, 503
// once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	slot := s.model.Load()
	sources := make([]map[string]any, len(s.sources))
	for i, src := range s.sources {
		sources[i] = map[string]any{
			"name":    src.Name(),
			"healthy": src.Healthy(),
			"breaker": src.BreakerState(),
		}
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":  "draining",
			"model":   slot.fingerprint,
			"sources": sources,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ready",
		"model":   slot.fingerprint,
		"sources": sources,
	})
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	writeLabelCounter(w, "pharmaverify_requests_total",
		"Verify requests by HTTP status code.", "code", s.met.requests)
	writeLabelCounter(w, "pharmaverify_domains_total",
		"Domain verifications by outcome.", "outcome", s.met.domains)
	writeLabelCounter(w, "pharmaverify_verdicts_total",
		"Fresh verdicts by class.", "verdict", s.met.verdicts)
	writeLabelCounter(w, "pharmaverify_source_contributions_total",
		"Evidence contributions fused into verdicts, by source.", "source", s.met.sourceContribs)
	writeLabelCounter(w, "pharmaverify_source_errors_total",
		"Evidence-source failures (the verdict degraded to the remaining sources).", "source", s.met.sourceErrors)

	// Resilience: per-source breaker state (0 closed, 1 half-open,
	// 2 open), lifecycle transitions, and the shed/fast-fail/timeout
	// counters of the degradation path.
	names := make([]string, len(s.sources))
	states := make([]float64, len(s.sources))
	for i, src := range s.sources {
		names[i] = src.Name()
		states[i] = float64(src.brk.currentState())
	}
	writeLabelGauge(w, "pharmaverify_source_breaker_state",
		"Circuit-breaker state per evidence source (0 closed, 1 half-open, 2 open).", "source", names, states)
	writeLabel2Counter(w, "pharmaverify_source_breaker_transitions_total",
		"Circuit-breaker lifecycle transitions by source and target state.", "source", "state", s.met.breakerTransitions)
	writeLabelCounter(w, "pharmaverify_source_breaker_rejections_total",
		"Assessments fast-failed because the source's breaker was open.", "source", s.met.breakerRejects)
	writeLabelCounter(w, "pharmaverify_source_shed_total",
		"Assessments shed because the source's bulkhead was saturated.", "source", s.met.sourceSheds)
	writeLabelCounter(w, "pharmaverify_source_timeouts_total",
		"Assessments cut off by the per-source deadline.", "source", s.met.sourceTimeouts)
	writeMetric(w, "pharmaverify_quorum_failures_total",
		"Verdicts abandoned because fewer sources voted than the evidence quorum requires.", "counter", fmt.Sprint(s.met.quorumFailures.value()))
	writeMetric(w, "pharmaverify_stale_verdicts_total",
		"Expired cache entries served as marked stale fallbacks after live assessment failed.", "counter", fmt.Sprint(s.cache.staleServed()))

	ls := s.graph.live.Stats()
	writeMetric(w, "pharmaverify_linkgraph_folds_total", "Crawl observations folded into the live link graph.", "counter", fmt.Sprint(ls.Folds))
	writeMetric(w, "pharmaverify_linkgraph_dropped_names_total", "Domain names rejected by the link-graph node bound.", "counter", fmt.Sprint(ls.DroppedNames))
	writeMetric(w, "pharmaverify_linkgraph_dropped_endpoints_total", "Outbound endpoints cut by the per-domain cap.", "counter", fmt.Sprint(ls.DroppedEndpoints))
	writeMetric(w, "pharmaverify_linkgraph_dirty", "Graph-changing folds not yet reflected in the served TrustRank scores.", "gauge", fmt.Sprint(s.graph.dirty()))
	writeMetric(w, "pharmaverify_linkgraph_refreshes_total", "TrustRank score recomputes since start.", "counter", fmt.Sprint(s.met.graphRefreshes.value()))
	if snap := s.graph.snap.Load(); snap != nil {
		writeMetric(w, "pharmaverify_linkgraph_nodes", "Nodes of the fused (training + live) graph behind the served scores.", "gauge", fmt.Sprint(snap.Nodes))
		writeMetric(w, "pharmaverify_linkgraph_edges", "Edges of the fused graph behind the served scores.", "gauge", fmt.Sprint(snap.Edges))
	}

	hits, misses, expiries, evictions := s.cache.stats()
	writeMetric(w, "pharmaverify_cache_hits_total", "Verdict cache hits.", "counter", fmt.Sprint(hits))
	writeMetric(w, "pharmaverify_cache_misses_total", "Verdict cache misses (including expiries).", "counter", fmt.Sprint(misses))
	writeMetric(w, "pharmaverify_cache_expiries_total", "Verdict cache TTL expiries.", "counter", fmt.Sprint(expiries))
	writeMetric(w, "pharmaverify_cache_evictions_total", "Verdict cache LRU evictions.", "counter", fmt.Sprint(evictions))
	writeMetric(w, "pharmaverify_cache_entries", "Current verdict cache entries.", "gauge", fmt.Sprint(s.cache.len()))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	writeMetric(w, "pharmaverify_cache_hit_ratio", "Verdict cache hit ratio since start.", "gauge", formatFloat(ratio))

	// Shared feature cache of the in-process training pipeline, split
	// by scope: "training" counts the reuse of feature artifacts across
	// ensemble members, folds and classifiers. The request path never
	// reads this cache. Scopes render in sorted order for a stable
	// exposition.
	fcStats := core.FeatureCacheScopeStats()
	fcScopes := make([]string, 0, len(fcStats))
	for scope := range fcStats {
		fcScopes = append(fcScopes, scope)
	}
	sort.Strings(fcScopes)
	fmt.Fprintf(w, "# HELP pharmaverify_featcache_hits_total Shared feature cache hits by accounting scope.\n# TYPE pharmaverify_featcache_hits_total counter\n")
	for _, scope := range fcScopes {
		fmt.Fprintf(w, "pharmaverify_featcache_hits_total{scope=%q} %d\n", scope, fcStats[scope].Hits)
	}
	fmt.Fprintf(w, "# HELP pharmaverify_featcache_misses_total Shared feature cache misses by accounting scope.\n# TYPE pharmaverify_featcache_misses_total counter\n")
	for _, scope := range fcScopes {
		fmt.Fprintf(w, "pharmaverify_featcache_misses_total{scope=%q} %d\n", scope, fcStats[scope].Misses)
	}

	// Shadow deployment: candidate-model double-assessment and the
	// promotion lifecycle (cumulative across candidates), plus the
	// known-domain corpus the re-verification scheduler sweeps.
	shadowActive := 0
	if s.ShadowActive() {
		shadowActive = 1
	}
	writeMetric(w, "pharmaverify_shadow_active", "Whether a shadow candidate model is loaded (0/1).", "gauge", fmt.Sprint(shadowActive))
	writeMetric(w, "pharmaverify_shadow_assessments_total", "Fresh verdicts double-assessed by a shadow candidate.", "counter", fmt.Sprint(s.met.shadowAssessments.value()))
	writeMetric(w, "pharmaverify_shadow_flips_total", "Shadow assessments whose fused verdict flipped the live class.", "counter", fmt.Sprint(s.met.shadowFlips.value()))
	writeLabelCounter(w, "pharmaverify_shadow_disagreements_total",
		"Per-source class disagreements between the shadow and live models.", "source", s.met.shadowDisagreements)
	writeMetric(w, "pharmaverify_shadow_promotions_total", "Shadow candidates promoted to the live model.", "counter", fmt.Sprint(s.met.shadowPromotions.value()))
	writeMetric(w, "pharmaverify_shadow_demotions_total", "Shadow candidates dropped without promotion.", "counter", fmt.Sprint(s.met.shadowDemotions.value()))
	writeMetric(w, "pharmaverify_corpus_domains", "Domains in the known-domain re-verification corpus.", "gauge", fmt.Sprint(s.corpus.len()))

	writeMetric(w, "pharmaverify_queue_depth", "Requests waiting for a worker slot.", "gauge", fmt.Sprint(s.adm.queued()))
	writeMetric(w, "pharmaverify_inflight_requests", "Requests holding a worker slot.", "gauge", fmt.Sprint(s.adm.inService()))
	writeMetric(w, "pharmaverify_queue_rejections_total", "Requests shed because the admission queue was full.", "counter", fmt.Sprint(s.met.queueReject.value()))
	writeMetric(w, "pharmaverify_model_reloads_total", "Hot model reloads since start.", "counter", fmt.Sprint(s.met.modelReloads.value()))
	writeMetric(w, "pharmaverify_model_reload_failures_total", "Failed model hot-reload attempts (the previous model kept serving).", "counter", fmt.Sprint(s.met.modelReloadFails.value()))

	st, crawls := s.agg.Snapshot()
	writeMetric(w, "pharmaverify_crawls_total", "On-demand domain crawls.", "counter", fmt.Sprint(crawls))
	writeMetric(w, "pharmaverify_crawl_attempts_total", "Page fetch attempts across all crawls.", "counter", fmt.Sprint(st.Attempts))
	writeMetric(w, "pharmaverify_crawl_retries_total", "Page fetch retries across all crawls.", "counter", fmt.Sprint(st.Retries))
	writeMetric(w, "pharmaverify_crawl_failures_total", "Failed page fetch attempts.", "counter", fmt.Sprint(st.Failures))
	writeMetric(w, "pharmaverify_crawl_pages_failed_total", "Pages lost for good.", "counter", fmt.Sprint(st.PagesFailed))
	writeMetric(w, "pharmaverify_crawl_timeouts_total", "Fetch attempts cut off by the fetch timeout.", "counter", fmt.Sprint(st.Timeouts))
	writeMetric(w, "pharmaverify_crawl_breaker_trips_total", "Domains abandoned by the failure-budget breaker.", "counter", fmt.Sprint(st.BreakerTrips))
	writeMetric(w, "pharmaverify_crawl_bytes_total", "HTML bytes fetched.", "counter", fmt.Sprint(st.Bytes))

	writeHistogram(w, "pharmaverify_crawl_duration_seconds", "Wall time of one on-demand crawl.", s.met.crawlSecs)
	writeHistogram(w, "pharmaverify_preprocess_duration_seconds", "Wall time of summarize + stop-word removal + link extraction for one domain.", s.met.preprocessSecs)
	writeHistogramVec(w, "pharmaverify_source_duration_seconds", "Wall time of one evidence-source assessment.", "source", s.met.sourceSecs)
	writeHistogram(w, "pharmaverify_linkgraph_refresh_duration_seconds", "Wall time of one TrustRank score recompute.", s.met.refreshSecs)
	writeHistogram(w, "pharmaverify_request_duration_seconds", "Wall time of one verify request.", s.met.requestSecs)

	s.extraMu.Lock()
	hooks := make([]func(io.Writer), len(s.extraMetrics))
	copy(hooks, s.extraMetrics)
	s.extraMu.Unlock()
	for _, fn := range hooks {
		fn(w)
	}
}
