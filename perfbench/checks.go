package main

import (
	"fmt"
	"reflect"

	"pharmaverify/internal/eval"
	"pharmaverify/internal/serve"
)

// The output checks test properties the method must have, or compare
// against a computation the benchmark makes apart from the serving
// path. Each returns nil when the output passes.

// checkVerdictRule tests one fresh served verdict against the fusion
// rule: both the text and the network source voted, the decision is
// the mean of the contributing probabilities against 0.5, and the OPR
// rank is textProb + trustScore.
func checkVerdictRule(v serve.DomainVerdict) error {
	if v.Error != "" {
		return fmt.Errorf("%s: error %q", v.Domain, v.Error)
	}
	if v.Partial || v.Stale {
		return fmt.Errorf("%s: partial=%v stale=%v", v.Domain, v.Partial, v.Stale)
	}
	voted := map[string]bool{}
	var sum float64
	for _, s := range v.Sources {
		voted[s.Name] = true
		sum += s.Prob
	}
	if !voted["text"] || !voted["network"] {
		return fmt.Errorf("%s: sources %v, want text and network", v.Domain, v.Sources)
	}
	if want := sum/float64(len(v.Sources)) >= 0.5; v.Legitimate != want {
		return fmt.Errorf("%s: legitimate=%v but the mean of %v says %v", v.Domain, v.Legitimate, v.Sources, want)
	}
	if v.Rank != v.TextProb+v.TrustScore {
		return fmt.Errorf("%s: rank %v != textProb %v + trustScore %v", v.Domain, v.Rank, v.TextProb, v.TrustScore)
	}
	return nil
}

// checkRanking tests a batch ranking: a permutation of the requested
// domains, sorted by rank descending with ties broken by domain.
func checkRanking(domains []string, rank map[string]float64, ranking []string) error {
	if len(ranking) != len(domains) {
		return fmt.Errorf("ranking has %d domains, request had %d", len(ranking), len(domains))
	}
	want := make(map[string]bool, len(domains))
	for _, d := range domains {
		want[d] = true
	}
	for i, d := range ranking {
		if !want[d] {
			return fmt.Errorf("ranking position %d: %q is not a requested domain or repeats", i, d)
		}
		delete(want, d)
		if i == 0 {
			continue
		}
		p := ranking[i-1]
		if rank[p] < rank[d] || (rank[p] == rank[d] && p > d) {
			return fmt.Errorf("ranking positions %d,%d out of order: %s (%v) before %s (%v)", i-1, i, p, rank[p], d, rank[d])
		}
	}
	return nil
}

// sameVerdict compares a served verdict with a reference one on
// everything but how it was served (cache flag and crawl telemetry).
func sameVerdict(got, want serve.DomainVerdict) error {
	g, w := got, want
	g.Cached, w.Cached = false, false
	g.Crawl, w.Crawl = nil, nil
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("%s: verdict %+v differs from %+v", got.Domain, g, w)
	}
	return nil
}

// checkHotReply tests one serve-hot reply: one cached result per
// requested domain, each equal to the verdict stored at warm-up, and a
// correct ranking.
func checkHotReply(domains []string, resp serve.VerifyResponse, stored map[string]serve.DomainVerdict) error {
	if len(resp.Results) != len(domains) {
		return fmt.Errorf("%d results for %d domains", len(resp.Results), len(domains))
	}
	rank := make(map[string]float64, len(domains))
	for i, v := range resp.Results {
		if v.Domain != domains[i] {
			return fmt.Errorf("result %d is %q, requested %q", i, v.Domain, domains[i])
		}
		if !v.Cached {
			return fmt.Errorf("%s: not served from the cache", v.Domain)
		}
		if err := sameVerdict(v, stored[v.Domain]); err != nil {
			return err
		}
		rank[v.Domain] = v.Rank
	}
	return checkRanking(domains, rank, resp.Ranking)
}

// checkSweep tests one re-verification sweep: every corpus domain
// re-verified exactly once, none with an error.
func checkSweep(corpus []string, seen map[string]int, errs int) error {
	if errs != 0 {
		return fmt.Errorf("%d re-verifications failed", errs)
	}
	if len(seen) != len(corpus) {
		return fmt.Errorf("sweep re-verified %d distinct domains, corpus has %d", len(seen), len(corpus))
	}
	for _, d := range corpus {
		if seen[d] != 1 {
			return fmt.Errorf("sweep re-verified %s %d times", d, seen[d])
		}
	}
	return nil
}

// checkConfusion tests that a cross-validated cell's pooled confusion
// counts cover the snapshot: every pharmacy is tested exactly once.
func checkConfusion(cell string, c eval.Confusion, size int) error {
	if c.Total() != size {
		return fmt.Errorf("%s: pooled confusion counts sum to %d, snapshot has %d", cell, c.Total(), size)
	}
	return nil
}
