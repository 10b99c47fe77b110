package main

import (
	"fmt"
	"math"
)

// layerMetrics is every per-layer metric a traced run prints, with its
// unit. Times marked ms are per operation; counts are totals over the
// timed phase unless the unit says per operation; _s metrics are per
// run. A layer a workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"serve.request_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.cache_evictions", "count"},
	{"crawler.crawl_ms", "ms"},
	{"crawler.fetch_ms", "ms"},
	{"crawler.self_ms", "ms"},
	{"crawler.pages", "count/op"},
	{"crawler.attempts", "count/op"},
	{"crawler.bytes", "B/op"},
	{"textproc.preprocess_ms", "ms"},
	{"source.text_ms", "ms"},
	{"source.network_ms", "ms"},
	{"trust.refreshes", "count"},
	{"trust.refresh_ms", "ms"},
	{"trust.folds", "count"},
	{"trust.graph_nodes", "count"},
	{"trust.graph_edges", "count"},
	{"reverify.reverify_ms", "ms"},
	{"reverify.scheduler_ms", "ms"},
	{"webgen.generate_s", "s"},
	{"dataset.build_s", "s"},
	{"core.train_s", "s"},
	{"ngram.featurize_s", "s"},
	{"vectorize.tfidf_s", "s"},
	{"ml.cv_ms.nb", "ms"},
	{"ml.cv_ms.nbm", "ms"},
	{"ml.cv_ms.svm", "ms"},
	{"ml.cv_ms.j48", "ms"},
	{"trust.network_cv_ms", "ms"},
	{"core.rank_cv_ms", "ms"},
	{"featcache.hits", "count"},
	{"featcache.misses", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_ms", "ms"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.sched_latency_p99_us", "us"},
	{"machine.probe_ms", "ms"},
	{"traced.throughput_per_s", "1/s"},
	{"traced.latency_p50_ms", "ms"},
}

// reconcileTolerance is how far the traced run's layer times may stray
// from the operation wall time they add up to: the sum of the layers'
// self times over the benchmark's own operation time must lie within
// 1 ± reconcileTolerance, and no self time may be negative by more than
// the same share.
const reconcileTolerance = 0.15

// Series of the server's /metrics exposition the serving layers read.
const (
	mRequest    = "pharmaverify_request_duration_seconds"
	mCrawl      = "pharmaverify_crawl_duration_seconds"
	mPreprocess = "pharmaverify_preprocess_duration_seconds"
	mSource     = "pharmaverify_source_duration_seconds"
	mRefresh    = "pharmaverify_linkgraph_refresh_duration_seconds"
)

// servingLayers derives the serving-path layer metrics from the change
// in the server's /metrics over the timed phase (d, summed over the
// servers a workload used) and the last server's gauges (end), over ops
// operations. The server's request histogram is the top of the serving
// path; for the re-verification sweep, which does not pass through the
// handler, the caller supplies the time inside Deployment.Reverify as
// top instead (top < 0 means "use the request histogram"). It returns
// the serving layers' self times, which add up to top.
func servingLayers(o *outcome, d, end scrape, ops float64, fetch, top float64) (selves []float64) {
	perOp := func(seconds float64) float64 { return seconds * 1000 / ops }
	crawl := perOp(d.histSum(mCrawl, "", ""))
	pre := perOp(d.histSum(mPreprocess, "", ""))
	text := perOp(d.histSum(mSource, "source", "text"))
	network := perOp(d.histSum(mSource, "source", "network"))
	registry := perOp(d.histSum(mSource, "source", "registry"))
	if top < 0 {
		top = perOp(d.histSum(mRequest, "", ""))
		o.layers["serve.request_ms"] = top
		if n := d.histCount(mRequest, "", ""); n != ops {
			o.problem("trace: the server counted %v requests, the clients sent %v", n, ops)
		}
	}
	self := top - crawl - pre - text - network - registry
	o.layers["serve.self_ms"] = self
	o.layers["serve.cache_hits"] = d["pharmaverify_cache_hits_total"]
	o.layers["serve.cache_misses"] = d["pharmaverify_cache_misses_total"]
	o.layers["serve.cache_evictions"] = d["pharmaverify_cache_evictions_total"]
	o.layers["crawler.crawl_ms"] = crawl
	o.layers["crawler.fetch_ms"] = fetch
	o.layers["crawler.self_ms"] = crawl - fetch
	o.layers["crawler.attempts"] = d["pharmaverify_crawl_attempts_total"] / ops
	o.layers["crawler.bytes"] = d["pharmaverify_crawl_bytes_total"] / ops
	o.layers["textproc.preprocess_ms"] = pre
	o.layers["source.text_ms"] = text
	o.layers["source.network_ms"] = network
	o.layers["trust.refreshes"] = d["pharmaverify_linkgraph_refreshes_total"]
	o.layers["trust.refresh_ms"] = perOp(d.histSum(mRefresh, "", ""))
	o.layers["trust.folds"] = d["pharmaverify_linkgraph_folds_total"]
	o.layers["trust.graph_nodes"] = end["pharmaverify_linkgraph_nodes"]
	o.layers["trust.graph_edges"] = end["pharmaverify_linkgraph_edges"]
	o.note("serving layers per op: top %.4f ms = serve self %.4f + crawl %.4f (fetch %.4f) + preprocess %.4f + text %.4f + network %.4f (TrustRank refresh %.4f, %s of top) + registry %.4f",
		top, self, crawl, fetch, pre, text, network, o.layers["trust.refresh_ms"], fmtRatio(o.layers["trust.refresh_ms"], top), registry)
	return []float64{self, crawl - fetch, fetch, pre, text, network, registry}
}

// reconcile checks that the layers' self times add up to the operation
// wall time within reconcileTolerance and records the ratio.
func reconcile(o *outcome, selves []float64, opMs float64) {
	var sum float64
	for _, s := range selves {
		sum += s
	}
	ratio := sum / opMs
	o.note("reconcile: layer self times sum to %.4f ms per op against %.4f ms of operation wall time (ratio %.4f, tolerance ±%.2f)",
		sum, opMs, ratio, reconcileTolerance)
	if math.IsNaN(ratio) || math.Abs(ratio-1) > reconcileTolerance {
		o.problem("trace: layer self times sum to %.4f of the operation wall time, outside 1±%.2f", ratio, reconcileTolerance)
	}
	for i, s := range selves {
		if s < -reconcileTolerance*opMs {
			o.problem("trace: self time %d is negative (%.4f ms per op)", i, s)
		}
	}
}

func fmtRatio(num, den float64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*num/den)
}
