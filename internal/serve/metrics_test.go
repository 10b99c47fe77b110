package serve

import (
	"bufio"
	"io"
	"net/http"
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

	// Structural sanity: every sample line belongs to a family that was
	// declared with # TYPE, and histogram buckets are cumulative within
	// each series (a labeled family restarts per label set).
	types := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	var (
		lastBucket uint64
		lastSeries string
	)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			types[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(base, suffix) && types[strings.TrimSuffix(base, suffix)] {
				base = strings.TrimSuffix(base, suffix)
			}
		}
		if !types[base] {
			t.Errorf("sample %q has no # TYPE declaration", name)
		}
		if i := strings.Index(line, "le="); strings.Contains(line, "_bucket{") && i >= 0 {
			// The series is the name plus every label before le (empty
			// for unlabeled histograms, source="x" for the vec).
			if series := line[:i]; series != lastSeries {
				lastSeries, lastBucket = series, 0
			}
			var v uint64
			if _, err := fmtSscan(line, &v); err == nil {
				if v < lastBucket {
					t.Errorf("histogram buckets not cumulative at %q", line)
				}
				lastBucket = v
			}
		}
	}
}

// fmtSscan parses the trailing integer of a sample line.
func fmtSscan(line string, v *uint64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return 0, io.EOF
	}
	var n uint64
	for _, c := range line[i+1:] {
		if c < '0' || c > '9' {
			return 0, io.EOF
		}
		n = n*10 + uint64(c-'0')
	}
	*v = n
	return 1, nil
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
		if c := h.bucket(i); c != want[i] {
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
	lc := &labelCounter{}
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
				lc.inc(label)
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
	if h.bucket(1) != total {
		t.Errorf("bucket(≤1) = %d, want %d", h.bucket(1), total)
	}
	keys, counts := lc.snapshot()
	var lcTotal uint64
	for _, c := range counts {
		lcTotal += c
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
	lc := &labelCounter{}
	lc.inc("zebra")
	lc.inc("alpha")
	lc.inc("alpha")
	keys, counts := lc.snapshot()
	if len(keys) != 2 || keys[0] != "alpha" || keys[1] != "zebra" {
		t.Fatalf("keys = %v, want sorted [alpha zebra]", keys)
	}
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("counts = %v, want [2 1]", counts)
	}
}
