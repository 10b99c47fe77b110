package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pharmaverify/internal/core"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/featcache"
	"pharmaverify/internal/trust"
)

// The serving metrics are rendered in the Prometheus text exposition
// format with no external dependencies. A Registry holds the metric
// families in declaration order; each family's name, HELP and TYPE are
// given once, where its instrument is created, and Write renders every
// family in one loop. Every instrument is lock-free on the observe path
// — counters and histogram buckets are single atomic adds, the float
// sum a CAS loop, and label families a sync.Map read — so concurrent
// requests never serialize on a metrics mutex. Renders read the atomics
// without a global lock: a snapshot taken mid-observation may be off by
// in-flight increments (a render racing observe can momentarily show a
// histogram's count ahead of its sum or vice versa), which is the
// standard Prometheus client trade for a contention-free hot path; each
// individual value is never torn.

// Registry is an ordered set of metric families. The zero value is
// ready to use. Declaring a name twice panics: a family renders once.
type Registry struct {
	mu   sync.Mutex
	fams []family
}

// family is one metric name: its HELP and TYPE, and the function that
// writes its samples at render time.
type family struct {
	name, help, typ string
	samples         func(e *encoder)
}

func (r *Registry) declare(name, help, typ string, samples func(e *encoder)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fams {
		if f.name == name {
			panic("serve: metric family " + name + " declared twice")
		}
	}
	r.fams = append(r.fams, family{name: name, help: help, typ: typ, samples: samples})
}

// mount appends the families sub has declared so far after r's own.
func (r *Registry) mount(sub *Registry) {
	sub.mu.Lock()
	fams := sub.fams[:len(sub.fams):len(sub.fams)]
	sub.mu.Unlock()
	for _, f := range fams {
		r.declare(f.name, f.help, f.typ, f.samples)
	}
}

// Write renders every family in declaration order: its HELP and TYPE
// lines, then its samples. A failed write is the scraper's loss alone,
// so it is not reported.
func (r *Registry) Write(w io.Writer) {
	r.mu.Lock()
	fams := r.fams[:len(r.fams):len(r.fams)]
	r.mu.Unlock()
	var e encoder
	for _, f := range fams {
		e.buf = fmt.Appendf(e.buf, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		e.name = f.name
		f.samples(&e)
	}
	_, _ = w.Write(e.buf)
}

// encoder accumulates the sample lines of one render.
type encoder struct {
	buf  []byte
	name string // the family being written
}

// sample writes one sample line: the family's name plus suffix, the
// labels (alternating names and values) and the value.
func (e *encoder) sample(suffix, value string, labels ...string) {
	e.buf = append(append(e.buf, e.name...), suffix...)
	sep := byte('{')
	for i := 0; i < len(labels); i += 2 {
		e.buf = appendLabelValue(append(append(append(e.buf, sep), labels[i]...), '='), labels[i+1])
		sep = ','
	}
	if len(labels) > 0 {
		e.buf = append(e.buf, '}')
	}
	e.buf = append(append(append(e.buf, ' '), value...), '\n')
}

func (e *encoder) count(v uint64, labels ...string) {
	e.sample("", strconv.FormatUint(v, 10), labels...)
}

// appendLabelValue appends v as a quoted label value, escaping
// backslash, double quote and newline as the text format requires.
func appendLabelValue(b []byte, v string) []byte {
	b = append(b, '"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// Counter is a monotonically increasing count.
type Counter struct{ n atomic.Uint64 }

func (c *Counter) Inc()          { c.n.Add(1) }
func (c *Counter) Value() uint64 { return c.n.Load() }

func (c *Counter) write(e *encoder, labels ...string) { e.count(c.Value(), labels...) }

// Counter declares an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.declare(name, help, "counter", func(e *encoder) { c.write(e) })
	return c
}

// Counters declares a counter family over a fixed set of values of one
// label, one Counter per value; every series renders, in the given
// order, from the first scrape on.
func (r *Registry) Counters(name, help, label string, values ...string) []*Counter {
	cs := make([]*Counter, len(values))
	for i := range cs {
		cs[i] = &Counter{}
	}
	r.declare(name, help, "counter", func(e *encoder) {
		for i, c := range cs {
			c.write(e, label, values[i])
		}
	})
	return cs
}

// counterFunc declares a counter read from fn at render time (counts
// kept by the cache, link graph and crawl aggregate); labels are
// constant name, value pairs of its one series.
func (r *Registry) counterFunc(name, help string, fn func() uint64, labels ...string) {
	r.declare(name, help, "counter", func(e *encoder) { e.count(fn(), labels...) })
}

// GaugeFunc declares an unlabelled gauge read from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.declare(name, help, "gauge", func(e *encoder) { e.sample("", formatGauge(fn())) })
}

// vec is a family of series keyed by label values. A series is created
// on first use via LoadOrStore; after that, reaching it is one sync.Map
// read. A family of several labels keys each series by its values
// joined with "|".
type vec[T interface{ write(*encoder, ...string) }] struct {
	m         sync.Map // key -> T
	newSeries func() T
}

func (v *vec[T]) with(key string) T {
	if s, ok := v.m.Load(key); ok {
		return s.(T)
	}
	s, _ := v.m.LoadOrStore(key, v.newSeries())
	return s.(T)
}

// snapshot returns the keys in sorted order with their series, so the
// rendered exposition is deterministic.
func (v *vec[T]) snapshot() ([]string, []T) {
	keys := make([]string, 0, 8)
	v.m.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	sort.Strings(keys)
	series := make([]T, len(keys))
	for i, k := range keys {
		s, _ := v.m.Load(k)
		series[i] = s.(T)
	}
	return keys, series
}

// write renders every series, sorted by key, labelled with names.
func (v *vec[T]) write(e *encoder, names ...string) {
	keys, series := v.snapshot()
	for i, k := range keys {
		var kv []string
		for j, val := range strings.SplitN(k, "|", len(names)) {
			kv = append(kv, names[j], val)
		}
		series[i].write(e, kv...)
	}
}

// labelCounter is a counter family over the values of its labels.
type labelCounter = vec[*Counter]

func newLabelCounter() *labelCounter {
	return &labelCounter{newSeries: func() *Counter { return &Counter{} }}
}

// labelCounter declares a counter family over the given label names.
func (r *Registry) labelCounter(name, help string, labels ...string) *labelCounter {
	lc := newLabelCounter()
	r.declare(name, help, "counter", func(e *encoder) { lc.write(e, labels...) })
	return lc
}

// histogram is a fixed-bucket Prometheus histogram. Buckets are atomic
// adds; the float sum is an atomic CAS loop over its bit pattern
// (uncontended in practice — the loop retries only when two
// observations land on the same histogram in the same instant). The
// observation count is the sum of the buckets, so a render's _count
// always equals its +Inf bucket.
type histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit; read-only
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// histogram declares an unlabelled histogram.
func (r *Registry) histogram(name, help string, bounds []float64) *histogram {
	h := newHistogram(bounds)
	r.declare(name, help, "histogram", func(e *encoder) { h.write(e) })
	return h
}

func (h *histogram) observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (h *histogram) sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *histogram) count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// mean returns the running mean of all observations (0 before the
// first). The 429 Retry-After hint is derived from it: the typical
// service time is the soonest a retry could plausibly be served.
func (h *histogram) mean() float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	return h.sum() / float64(n)
}

// write renders one series' cumulative buckets, sum and count; labels
// (alternating names and values) precede le.
func (h *histogram) write(e *encoder, labels ...string) {
	le := append(labels[:len(labels):len(labels)], "le", "")
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le[len(le)-1] = "+Inf"
		if i < len(h.bounds) {
			le[len(le)-1] = formatFloat(h.bounds[i])
		}
		e.sample("_bucket", strconv.FormatUint(cum, 10), le...)
	}
	e.sample("_sum", formatFloat(h.sum()), labels...)
	e.sample("_count", strconv.FormatUint(cum, 10), labels...)
}

// histogramVec is a histogram family over the values of one label
// (per-evidence-source latency). Label values are created on first
// observation, so pluggable sources need no registration.
type histogramVec = vec[*histogram]

func newHistogramVec(bounds []float64) *histogramVec {
	return &histogramVec{newSeries: func() *histogram { return newHistogram(bounds) }}
}

// histogramVec declares a histogram family over one label.
func (r *Registry) histogramVec(name, help, label string, bounds []float64) *histogramVec {
	v := newHistogramVec(bounds)
	r.declare(name, help, "histogram", func(e *encoder) { v.write(e, label) })
	return v
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// formatGauge writes an integral gauge (a depth, a size, a 0/1 flag)
// as an integer and any other as formatFloat does.
func formatGauge(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return formatFloat(v)
}

// durationBuckets covers 1 ms … 60 s, the plausible range of one
// on-demand crawl-and-classify request.
var durationBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// metrics is the daemon's registry and the instruments the serving
// path updates. Values the live components already hold (queue depth,
// cache counts, graph size) are not copied here: func-backed families
// read them at render time, which keeps them impossible to desync.
type metrics struct {
	reg          Registry
	requests     *labelCounter // code: HTTP status of /v1/verify responses
	domains      *labelCounter // outcome, one per /v1/verify domain: cache_hit | stale | crawled | partial | deduped | error
	verdicts     *labelCounter // verdict: legitimate | illegitimate
	queueReject  *Counter
	modelReloads *Counter
	// Evidence fusion: per-source assessment latency, fused
	// contributions and degraded (errored) assessments by source, and
	// the link-graph TrustRank refresh cost.
	sourceSecs     *histogramVec // source: text | network | registry
	sourceContribs *labelCounter // source
	sourceErrors   *labelCounter // source
	graphRefreshes *Counter
	refreshSecs    *histogram
	// Resilience: breaker lifecycle transitions ("source|state" keys,
	// rendered as two labels), requests fast-failed by an open breaker,
	// assessments shed by a full bulkhead or cut off by the per-source
	// deadline, verdicts that failed the evidence quorum, and failed
	// model hot-reload attempts (the reload itself only logs).
	breakerTransitions *labelCounter // "source|state"
	breakerRejects     *labelCounter // source
	sourceSheds        *labelCounter // source
	sourceTimeouts     *labelCounter // source
	quorumFailures     *Counter
	modelReloadFails   *Counter
	// Shadow deployment: fresh observations double-assessed by the
	// candidate model, fused-verdict flips, per-source class
	// disagreements, and the promotion/demotion lifecycle. Cumulative
	// across candidates — the per-candidate gate counters live on the
	// shadowState itself.
	shadowAssessments   *Counter
	shadowFlips         *Counter
	shadowDisagreements *labelCounter // source
	shadowPromotions    *Counter
	shadowDemotions     *Counter
	// Per-stage latency of the on-demand pipeline: crawl → preprocess
	// (summarize, stop-word removal, link extraction) → per-source
	// assessment (sourceSecs). requestSecs covers the whole request.
	crawlSecs      *histogram
	preprocessSecs *histogram
	requestSecs    *histogram
}

// newMetrics declares the daemon's families in exposition order. The
// func-backed families read s's components at render time only, so s
// may still be under construction.
func newMetrics(s *Server) *metrics {
	m := &metrics{}
	r := &m.reg
	m.requests = r.labelCounter("pharmaverify_requests_total", "Verify requests by HTTP status code.", "code")
	m.domains = r.labelCounter("pharmaverify_domains_total", "Domain verifications by outcome.", "outcome")
	m.verdicts = r.labelCounter("pharmaverify_verdicts_total", "Fresh verdicts by class.", "verdict")
	m.sourceContribs = r.labelCounter("pharmaverify_source_contributions_total",
		"Evidence contributions fused into verdicts, by source.", "source")
	m.sourceErrors = r.labelCounter("pharmaverify_source_errors_total",
		"Evidence-source failures (the verdict degraded to the remaining sources).", "source")

	// Resilience: per-source breaker state, lifecycle transitions, and
	// the shed/fast-fail/timeout counters of the degradation path.
	r.declare("pharmaverify_source_breaker_state",
		"Circuit-breaker state per evidence source (0 closed, 1 half-open, 2 open).", "gauge", func(e *encoder) {
			for _, src := range s.sources {
				e.count(uint64(src.brk.currentState()), "source", src.Name())
			}
		})
	m.breakerTransitions = r.labelCounter("pharmaverify_source_breaker_transitions_total",
		"Circuit-breaker lifecycle transitions by source and target state.", "source", "state")
	m.breakerRejects = r.labelCounter("pharmaverify_source_breaker_rejections_total",
		"Assessments fast-failed because the source's breaker was open.", "source")
	m.sourceSheds = r.labelCounter("pharmaverify_source_shed_total",
		"Assessments shed because the source's bulkhead was saturated.", "source")
	m.sourceTimeouts = r.labelCounter("pharmaverify_source_timeouts_total",
		"Assessments cut off by the per-source deadline.", "source")
	m.quorumFailures = r.Counter("pharmaverify_quorum_failures_total",
		"Verdicts abandoned because fewer sources voted than the evidence quorum requires.")
	r.counterFunc("pharmaverify_stale_verdicts_total",
		"Expired cache entries served as marked stale fallbacks after live assessment failed.", s.cache.staleServed)

	live := func() trust.LiveStats { return s.graph.live.Stats() }
	r.counterFunc("pharmaverify_linkgraph_folds_total", "Crawl observations folded into the live link graph.", func() uint64 { return live().Folds })
	r.counterFunc("pharmaverify_linkgraph_dropped_names_total", "Domain names rejected by the link-graph node bound.", func() uint64 { return live().DroppedNames })
	r.counterFunc("pharmaverify_linkgraph_dropped_endpoints_total", "Outbound endpoints cut by the per-domain cap.", func() uint64 { return live().DroppedEndpoints })
	r.GaugeFunc("pharmaverify_linkgraph_dirty", "Graph-changing folds not yet reflected in the served TrustRank scores.", func() float64 { return float64(s.graph.dirty()) })
	m.graphRefreshes = r.Counter("pharmaverify_linkgraph_refreshes_total", "TrustRank score recomputes since start.")
	// The graph size has no sample until the first refresh.
	r.declare("pharmaverify_linkgraph_nodes", "Nodes of the fused (training + live) graph behind the served scores.", "gauge", func(e *encoder) {
		if snap := s.graph.snap.Load(); snap != nil {
			e.count(uint64(snap.Nodes))
		}
	})
	r.declare("pharmaverify_linkgraph_edges", "Edges of the fused graph behind the served scores.", "gauge", func(e *encoder) {
		if snap := s.graph.snap.Load(); snap != nil {
			e.count(uint64(snap.Edges))
		}
	})

	r.counterFunc("pharmaverify_cache_hits_total", "Verdict cache hits.", func() uint64 { n, _, _, _ := s.cache.stats(); return n })
	r.counterFunc("pharmaverify_cache_misses_total", "Verdict cache misses (including expiries).", func() uint64 { _, n, _, _ := s.cache.stats(); return n })
	r.counterFunc("pharmaverify_cache_expiries_total", "Verdict cache TTL expiries.", func() uint64 { _, _, n, _ := s.cache.stats(); return n })
	r.counterFunc("pharmaverify_cache_evictions_total", "Verdict cache LRU evictions.", func() uint64 { _, _, _, n := s.cache.stats(); return n })
	r.GaugeFunc("pharmaverify_cache_entries", "Current verdict cache entries.", func() float64 { return float64(s.cache.len()) })
	r.GaugeFunc("pharmaverify_cache_hit_ratio", "Verdict cache hit ratio since start.", func() float64 {
		hits, misses, _, _ := s.cache.stats()
		return float64(hits) / max(float64(hits+misses), 1)
	})

	// The in-process training pipeline's shared feature cache: reuse of
	// feature artifacts across ensemble members, folds and classifiers.
	// The request path never reads it.
	featStats := func() featcache.CacheStats { return core.FeatureCacheScopeStats()[featcache.ScopeTraining] }
	r.counterFunc("pharmaverify_featcache_hits_total", "Shared feature cache hits by accounting scope.",
		func() uint64 { return featStats().Hits }, "scope", featcache.ScopeTraining)
	r.counterFunc("pharmaverify_featcache_misses_total", "Shared feature cache misses by accounting scope.",
		func() uint64 { return featStats().Misses }, "scope", featcache.ScopeTraining)

	// Shadow deployment: candidate-model double-assessment and the
	// promotion lifecycle (cumulative across candidates), plus the
	// known-domain corpus the re-verification scheduler sweeps.
	r.GaugeFunc("pharmaverify_shadow_active", "Whether a shadow candidate model is loaded (0/1).", func() float64 {
		if s.ShadowActive() {
			return 1
		}
		return 0
	})
	m.shadowAssessments = r.Counter("pharmaverify_shadow_assessments_total", "Fresh verdicts double-assessed by a shadow candidate.")
	m.shadowFlips = r.Counter("pharmaverify_shadow_flips_total", "Shadow assessments whose fused verdict flipped the live class.")
	m.shadowDisagreements = r.labelCounter("pharmaverify_shadow_disagreements_total",
		"Per-source class disagreements between the shadow and live models.", "source")
	m.shadowPromotions = r.Counter("pharmaverify_shadow_promotions_total", "Shadow candidates promoted to the live model.")
	m.shadowDemotions = r.Counter("pharmaverify_shadow_demotions_total", "Shadow candidates dropped without promotion.")
	r.GaugeFunc("pharmaverify_corpus_domains", "Domains in the known-domain re-verification corpus.", func() float64 { return float64(s.corpus.len()) })

	r.GaugeFunc("pharmaverify_queue_depth", "Requests waiting for a worker slot.", func() float64 { return float64(s.adm.queued()) })
	r.GaugeFunc("pharmaverify_inflight_requests", "Requests holding a worker slot.", func() float64 { return float64(s.adm.inService()) })
	m.queueReject = r.Counter("pharmaverify_queue_rejections_total", "Requests shed because the admission queue was full.")
	m.modelReloads = r.Counter("pharmaverify_model_reloads_total", "Hot model reloads since start.")
	m.modelReloadFails = r.Counter("pharmaverify_model_reload_failures_total", "Failed model hot-reload attempts (the previous model kept serving).")

	crawl := func() crawler.Stats { st, _ := s.agg.Snapshot(); return st }
	r.counterFunc("pharmaverify_crawls_total", "On-demand domain crawls.", func() uint64 { _, n := s.agg.Snapshot(); return uint64(n) })
	r.counterFunc("pharmaverify_crawl_attempts_total", "Page fetch attempts across all crawls.", func() uint64 { return uint64(crawl().Attempts) })
	r.counterFunc("pharmaverify_crawl_retries_total", "Page fetch retries across all crawls.", func() uint64 { return uint64(crawl().Retries) })
	r.counterFunc("pharmaverify_crawl_failures_total", "Failed page fetch attempts.", func() uint64 { return uint64(crawl().Failures) })
	r.counterFunc("pharmaverify_crawl_pages_failed_total", "Pages lost for good.", func() uint64 { return uint64(crawl().PagesFailed) })
	r.counterFunc("pharmaverify_crawl_timeouts_total", "Fetch attempts cut off by the fetch timeout.", func() uint64 { return uint64(crawl().Timeouts) })
	r.counterFunc("pharmaverify_crawl_breaker_trips_total", "Domains abandoned by the failure-budget breaker.", func() uint64 { return uint64(crawl().BreakerTrips) })
	r.counterFunc("pharmaverify_crawl_bytes_total", "HTML bytes fetched.", func() uint64 { return uint64(crawl().Bytes) })

	m.crawlSecs = r.histogram("pharmaverify_crawl_duration_seconds", "Wall time of one on-demand crawl.", durationBuckets)
	m.preprocessSecs = r.histogram("pharmaverify_preprocess_duration_seconds",
		"Wall time of summarize + stop-word removal + link extraction for one domain.", durationBuckets)
	m.sourceSecs = r.histogramVec("pharmaverify_source_duration_seconds",
		"Wall time of one evidence-source assessment.", "source", durationBuckets)
	m.refreshSecs = r.histogram("pharmaverify_linkgraph_refresh_duration_seconds",
		"Wall time of one TrustRank score recompute.", durationBuckets)
	m.requestSecs = r.histogram("pharmaverify_request_duration_seconds", "Wall time of one verify request.", durationBuckets)
	return m
}
