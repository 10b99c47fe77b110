package main

import (
	"strings"
	"testing"
)

const exposition = `# HELP pharmaverify_request_duration_seconds Wall time of one verify request.
# TYPE pharmaverify_request_duration_seconds histogram
pharmaverify_request_duration_seconds_bucket{le="0.001"} 3
pharmaverify_request_duration_seconds_bucket{le="+Inf"} 5
pharmaverify_request_duration_seconds_sum 0.0123
pharmaverify_request_duration_seconds_count 5
# HELP pharmaverify_source_duration_seconds Wall time of one evidence-source assessment.
# TYPE pharmaverify_source_duration_seconds histogram
pharmaverify_source_duration_seconds_bucket{source="network",le="0.01"} 1
pharmaverify_source_duration_seconds_bucket{source="network",le="+Inf"} 2
pharmaverify_source_duration_seconds_sum{source="network"} 1.5e-02
pharmaverify_source_duration_seconds_count{source="network"} 2
pharmaverify_source_duration_seconds_sum{source="text"} 0.004
pharmaverify_source_duration_seconds_count{source="text"} 2
pharmaverify_cache_hits_total 42
pharmaverify_reverify_domains_total{outcome="ok"} 7
`

func TestParseExpositionHistograms(t *testing.T) {
	s, err := parseExposition(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		got, want float64
	}{
		{s.histSum(mRequest, "", ""), 0.0123},
		{s.histCount(mRequest, "", ""), 5},
		{s.histSum(mSource, "source", "network"), 0.015},
		{s.histCount(mSource, "source", "network"), 2},
		{s.histSum(mSource, "source", "text"), 0.004},
		{s[`pharmaverify_request_duration_seconds_bucket{le="+Inf"}`], 5},
		{s["pharmaverify_cache_hits_total"], 42},
		{s[`pharmaverify_reverify_domains_total{outcome="ok"}`], 7},
	} {
		if tc.got != tc.want {
			t.Errorf("got %v, want %v", tc.got, tc.want)
		}
	}
	if got := s.histSum(mSource, "source", "registry"); got != 0 {
		t.Errorf("absent series read %v, want 0", got)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for _, bad := range []string{"pharmaverify_cache_hits_total\n", "pharmaverify_cache_hits_total many\n"} {
		if _, err := parseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
}

func TestScrapeAdd(t *testing.T) {
	before := scrape{"a_sum": 1, "c": 5}
	after := scrape{"a_sum": 3.5, "b": 2, "c": 5}
	d := scrape{}
	d.add(before, after)
	d.add(scrape{"a_sum": 10}, scrape{"a_sum": 11})
	if d["a_sum"] != 3.5 || d["b"] != 2 || d["c"] != 0 {
		t.Fatalf("deltas %v", d)
	}
}
