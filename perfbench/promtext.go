package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
)

// scrape is one read of a Prometheus text exposition: every sample by
// its series, written as `name` or `name{label="value",...}` exactly as
// exposed.
type scrape map[string]float64

// parseExposition reads the text format the server's /metrics writes.
// Comment lines are skipped; every other line must be a series followed
// by one value.
func parseExposition(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(text, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
		}
		v, err := strconv.ParseFloat(text[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", line, err)
		}
		out[strings.TrimSpace(text[:i])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// scrapeHandler fetches and parses /metrics from an in-process handler.
func scrapeHandler(h http.Handler) (scrape, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	return parseExposition(rec.Body)
}

// series names one sample: a family name plus an optional single label.
func series(name, label, value string) string {
	if label == "" {
		return name
	}
	return fmt.Sprintf("%s{%s=%q}", name, label, value)
}

// histSum and histCount read a histogram's _sum and _count samples (of
// the series with the given label, or the unlabelled one).
func (s scrape) histSum(name, label, value string) float64 {
	return s[series(name+"_sum", label, value)]
}

func (s scrape) histCount(name, label, value string) float64 {
	return s[series(name+"_count", label, value)]
}

// add accumulates after minus before into s, for every series of after.
func (s scrape) add(before, after scrape) {
	for k, v := range after {
		s[k] += v - before[k]
	}
}
