package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestMetricsExposition(t *testing.T) {
	w, _, _ := testVerifier(t)
	_, ts := newTestServer(t, Config{Fetcher: w, Workers: 2})

	// Drive some traffic: one fresh verdict, one cache hit.
	domain := pickDomain(t, true)
	postVerify(t, ts.URL, VerifyRequest{Domain: domain})
	postVerify(t, ts.URL, VerifyRequest{Domain: domain})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want Prometheus text format", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)

	// Every metric family the acceptance criteria name must be present.
	for _, want := range []string{
		"pharmaverify_cache_hit_ratio ",
		"pharmaverify_cache_hits_total 1",
		"pharmaverify_queue_depth 0",
		"pharmaverify_crawls_total 1",
		`pharmaverify_requests_total{code="200"} 2`,
		`pharmaverify_domains_total{outcome="cache_hit"} 1`,
		`pharmaverify_domains_total{outcome="crawled"} 1`,
		"pharmaverify_crawl_duration_seconds_count 1",
		"pharmaverify_request_duration_seconds_count 2",
		// Evidence fusion: per-source contributions and latency (one
		// fresh verdict fused text + network; the unconfigured registry
		// abstained but was still timed), plus the link-graph telemetry.
		`pharmaverify_source_contributions_total{source="text"} 1`,
		`pharmaverify_source_contributions_total{source="network"} 1`,
		`pharmaverify_source_duration_seconds_count{source="text"} 1`,
		`pharmaverify_source_duration_seconds_count{source="registry"} 1`,
		"pharmaverify_linkgraph_folds_total 1",
		"pharmaverify_linkgraph_refreshes_total 1",
		"pharmaverify_linkgraph_dirty 0",
		"pharmaverify_linkgraph_nodes ",
		"pharmaverify_linkgraph_refresh_duration_seconds_count 1",
		// Shared feature cache: the training scope always renders,
		// even before any training traffic touched it.
		`pharmaverify_featcache_hits_total{scope="training"} `,
		`pharmaverify_featcache_misses_total{scope="training"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// The request path never reads the feature cache, so no scope
	// claims to count serving traffic.
	if strings.Contains(body, `scope="serving"`) {
		t.Error(`metrics exposition has a featcache scope="serving" row`)
	}

	checkExposition(t, body)
}

// TestMetricsExpositionStrict parses a whole /metrics render — every
// daemon family with samples, plus a companion registry rendered
// through RegisterMetrics — under the text format's rules.
func TestMetricsExpositionStrict(t *testing.T) {
	w, _, _ := testVerifier(t)
	s, ts := newTestServer(t, Config{Fetcher: w, Workers: 2})
	var companion Registry
	companion.GaugeFunc("companion_ratio", "A float gauge.", func() float64 { return 0.25 })
	companion.Counters("companion_total", "A fixed-label counter.", "outcome", "ok", "error")[0].Inc()
	s.RegisterMetrics(&companion)

	postVerify(t, ts.URL, VerifyRequest{Domains: []string{pickDomain(t, true), pickDomain(t, false)}})
	postVerify(t, ts.URL, VerifyRequest{Domain: pickDomain(t, true)})
	getBody(t, ts.URL+"/v1/verify") // 405
	s.met.breakerTransitions.with("text|open").Inc()
	s.met.breakerTransitions.with("text|half-open").Inc()
	s.met.sourceErrors.with("odd \\ \"source\"\nname").Inc()

	_, body := getBody(t, ts.URL+"/metrics")
	fams := checkExposition(t, body)
	for _, name := range []string{
		"pharmaverify_requests_total", "pharmaverify_source_breaker_transitions_total",
		"pharmaverify_source_breaker_state", "pharmaverify_linkgraph_nodes",
		"pharmaverify_request_duration_seconds", "pharmaverify_source_duration_seconds",
		"companion_ratio", "companion_total",
	} {
		if fams[name] == 0 {
			t.Errorf("family %s rendered no samples", name)
		}
	}
	for _, want := range []string{
		`pharmaverify_source_breaker_transitions_total{source="text",state="half-open"} 1`,
		`pharmaverify_source_errors_total{source="odd \\ \"source\"\nname"} 1`,
		`companion_total{outcome="error"} 0`,
		"companion_ratio 0.25",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestRegistryRejectsDuplicateFamily: a family name declared or mounted
// twice panics instead of rendering twice.
func TestRegistryRejectsDuplicateFamily(t *testing.T) {
	var server, companion Registry
	server.Counter("a_total", "a")
	companion.Counter("b_total", "b")
	server.mount(&companion)
	for name, f := range map[string]func(){
		"declare": func() { server.Counter("a_total", "again") },
		"mount":   func() { server.mount(&companion) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a duplicate family did not panic", name)
				}
			}()
			f()
		}()
	}
}

// checkExposition fails t unless body is a valid text exposition: every
// line parses, each family has one HELP and one TYPE before its first
// sample and its samples in one run, no series repeats, and histogram
// buckets are cumulative with _count equal to the +Inf bucket. It
// returns each family's sample count.
func checkExposition(t *testing.T, body string) map[string]int {
	t.Helper()
	var (
		help, typ = map[string]int{}, map[string]string{}
		samples   = map[string]int{}
		series    = map[string]bool{}
		closed    = map[string]bool{} // families whose run of samples ended
		current   string
		bucket    = map[string]float64{} // histogram series → last cumulative bucket
	)
	if !strings.HasSuffix(body, "\n") {
		t.Error("exposition does not end in a newline")
	}
	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		fail := func(format string, args ...any) {
			t.Errorf("line %d %q: "+format, append([]any{n + 1, line}, args...)...)
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if help[name]++; help[name] > 1 || samples[name] > 0 || !validName(name) {
				fail("repeated, late or invalid HELP")
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if _, dup := typ[name]; dup || samples[name] > 0 || help[name] != 1 {
				fail("repeated or late TYPE, or TYPE without HELP")
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				fail("unknown type %q", kind)
			}
			typ[name] = kind
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			fail("%v", err)
			continue
		}
		fam, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, sfx); base != name && typ[base] == "histogram" {
				fam, suffix = base, sfx
			}
		}
		if typ[fam] == "" {
			fail("sample of a family with no TYPE")
			continue
		}
		if fam != current {
			if closed[fam] {
				fail("samples of %s split across the render", fam)
			}
			closed[current], current = true, fam
		}
		samples[fam]++
		key := name + "{" + strings.Join(labels, ",") + "}"
		if series[key] {
			fail("repeated series")
		}
		series[key] = true
		if typ[fam] != "histogram" {
			continue
		}
		// The histogram series is its labels without le.
		var le string
		var rest []string
		for _, l := range labels {
			if v, ok := strings.CutPrefix(l, "le="); ok {
				le = v
			} else {
				rest = append(rest, l)
			}
		}
		hs := fam + "{" + strings.Join(rest, ",") + "}"
		switch suffix {
		case "_bucket":
			if le == "" {
				fail("bucket without le")
			}
			if value < bucket[hs] {
				fail("buckets not cumulative")
			}
			bucket[hs] = value
			if le == "+Inf" {
				bucket[hs+"+Inf"] = value
			}
		case "_count":
			if inf, ok := bucket[hs+"+Inf"]; !ok || inf != value {
				fail("_count %v, +Inf bucket %v (present %v)", value, inf, ok)
			}
			delete(bucket, hs)
		}
	}
	for name := range help {
		if _, ok := typ[name]; !ok {
			t.Errorf("family %s has HELP but no TYPE", name)
		}
	}
	return samples
}

// parseSample splits one sample line into its name, its labels (each
// `name=value` with the value unescaped) and its value.
func parseSample(line string) (name string, labels []string, value float64, err error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 || !validName(line[:i]) {
		return "", nil, 0, fmt.Errorf("bad metric name")
	}
	name, rest := line[:i], line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for rest != "" && rest[0] != '}' {
			eq := strings.IndexByte(rest, '=')
			if eq <= 0 || !validName(rest[:eq]) || len(rest) < eq+2 || rest[eq+1] != '"' {
				return "", nil, 0, fmt.Errorf("bad label in %q", rest)
			}
			lname := rest[:eq]
			var v strings.Builder
			j := eq + 2
			for ; j < len(rest) && rest[j] != '"'; j++ {
				if rest[j] == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case '\\', '"':
						v.WriteByte(rest[j])
					case 'n':
						v.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("bad escape \\%c", rest[j])
					}
					continue
				}
				v.WriteByte(rest[j])
			}
			if j == len(rest) {
				return "", nil, 0, fmt.Errorf("unterminated label value")
			}
			labels = append(labels, lname+"="+v.String())
			rest = strings.TrimPrefix(rest[j+1:], ",")
		}
		if rest == "" {
			return "", nil, 0, fmt.Errorf("unterminated label set")
		}
		rest = rest[1:]
	}
	v, ok := strings.CutPrefix(rest, " ")
	if !ok {
		return "", nil, 0, fmt.Errorf("no value")
	}
	value, err = strconv.ParseFloat(v, 64)
	return name, labels, value, err
}

func validName(s string) bool {
	for i, c := range s {
		if !(c == '_' || c == ':' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || i > 0 && '0' <= c && c <= '9') {
			return false
		}
	}
	return s != ""
}

// TestLabelValueEscaping: one function escapes every label value, per
// the text format, and for every value the daemon and the
// re-verification pipeline emit it writes exactly what Go's %q did.
func TestLabelValueEscaping(t *testing.T) {
	values := []string{"200", "400", "405", "429", "503", "504",
		"cache_hit", "stale", "crawled", "partial", "deduped", "error",
		"legitimate", "illegitimate", "training", "ok", "skipped", "+Inf"}
	for _, src := range []EvidenceSource{textSource{}, networkSource{}, registrySource{}} {
		values = append(values, src.Name())
	}
	for _, st := range []breakerState{breakerClosed, breakerHalfOpen, breakerOpen} {
		values = append(values, st.String())
	}
	for _, b := range durationBuckets {
		values = append(values, formatFloat(b))
	}
	for _, v := range values {
		if got, want := string(appendLabelValue(nil, v)), strconv.Quote(v); got != want {
			t.Errorf("label value %q written as %s, %%q wrote %s", v, got, want)
		}
	}
	if got, want := string(appendLabelValue(nil, "a\\b\"c\nd")), `"a\\b\"c\nd"`; got != want {
		t.Errorf("escaped %s, want %s", got, want)
	}
}

// TestHotPathInstrumentsDoNotAllocate: the increments and observations
// on the request path are atomics and sync.Map loads only.
func TestHotPathInstrumentsDoNotAllocate(t *testing.T) {
	var r Registry
	c := r.Counter("c_total", "c")
	lc := r.labelCounter("lc_total", "lc", "outcome")
	h := r.histogram("h_seconds", "h", durationBuckets)
	hv := r.histogramVec("hv_seconds", "hv", "source", durationBuckets)
	lc.with("cache_hit").Inc()
	hv.with("text").observe(0.01)
	for name, f := range map[string]func(){
		"counter inc":           c.Inc,
		"label counter inc":     func() { lc.with("cache_hit").Inc() },
		"histogram observe":     func() { h.observe(0.02) },
		"histogram vec observe": func() { hv.with("text").observe(0.02) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.observe(v)
	}
	if h.count() != 5 {
		t.Errorf("n = %d, want 5", h.count())
	}
	want := []uint64{1, 2, 1, 1} // ≤0.1, ≤1, ≤10, +Inf
	for i := range want {
		if c := h.counts[i].Load(); c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if h.sum() != 56.05 {
		t.Errorf("sum = %v, want 56.05", h.sum())
	}
}

// TestMetricsConcurrentObserve hammers every instrument kind from many
// goroutines (run with -race) and checks the totals reconcile: the
// observe path is lock-free, so this is where torn updates would show.
func TestMetricsConcurrentObserve(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	lc := newLabelCounter()
	hv := newHistogramVec([]float64{0.5})
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			label := []string{"text", "network", "registry"}[g%3]
			for i := 0; i < per; i++ {
				h.observe(0.25)
				lc.with(label).Inc()
				hv.with(label).observe(2)
			}
		}(g)
	}
	wg.Wait()
	const total = goroutines * per
	if h.count() != total {
		t.Errorf("histogram count = %d, want %d", h.count(), total)
	}
	if got, want := h.sum(), 0.25*total; got != want {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
	if h.counts[1].Load() != total {
		t.Errorf("bucket(≤1) = %d, want %d", h.counts[1].Load(), total)
	}
	keys, counts := lc.snapshot()
	var lcTotal uint64
	for _, c := range counts {
		lcTotal += c.Value()
	}
	if len(keys) != 3 || lcTotal != total {
		t.Errorf("labelCounter: keys=%v total=%d, want 3 labels / %d", keys, lcTotal, total)
	}
	vkeys, hs := hv.snapshot()
	var hvTotal uint64
	for _, vh := range hs {
		hvTotal += vh.count()
	}
	if len(vkeys) != 3 || hvTotal != total {
		t.Errorf("histogramVec: keys=%v total=%d, want 3 labels / %d", vkeys, hvTotal, total)
	}
}

func TestLabelCounterDeterministicOrder(t *testing.T) {
	lc := newLabelCounter()
	lc.with("zebra").Inc()
	lc.with("alpha").Inc()
	lc.with("alpha").Inc()
	keys, counts := lc.snapshot()
	if len(keys) != 2 || keys[0] != "alpha" || keys[1] != "zebra" {
		t.Fatalf("keys = %v, want sorted [alpha zebra]", keys)
	}
	if counts[0].Value() != 2 || counts[1].Value() != 1 {
		t.Errorf("counts = [%d %d], want [2 1]", counts[0].Value(), counts[1].Value())
	}
}
