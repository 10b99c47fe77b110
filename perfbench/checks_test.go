package main

import (
	"strings"
	"testing"

	"pharmaverify/internal/eval"
	"pharmaverify/internal/serve"
)

func goodVerdict(domain string, text, trust, network float64) serve.DomainVerdict {
	return serve.DomainVerdict{
		Domain:      domain,
		Legitimate:  (text+network)/2 >= 0.5,
		Rank:        text + trust,
		TextProb:    text,
		TrustScore:  trust,
		NetworkProb: network,
		Pages:       12,
		Sources:     []serve.SourceContribution{{Name: "text", Prob: text}, {Name: "network", Prob: network}},
	}
}

func TestCheckVerdictRule(t *testing.T) {
	v := goodVerdict("a.example", 0.9, 0.02, 0.7)
	if err := checkVerdictRule(v); err != nil {
		t.Fatalf("good verdict rejected: %v", err)
	}
	for name, tamper := range map[string]func(*serve.DomainVerdict){
		"wrong rank":       func(v *serve.DomainVerdict) { v.Rank += 0.1 },
		"flipped decision": func(v *serve.DomainVerdict) { v.Legitimate = !v.Legitimate },
		"network missing":  func(v *serve.DomainVerdict) { v.Sources = v.Sources[:1] },
		"partial":          func(v *serve.DomainVerdict) { v.Partial = true },
		"stale":            func(v *serve.DomainVerdict) { v.Stale = true },
		"error":            func(v *serve.DomainVerdict) { v.Error = "no pages" },
	} {
		bad := goodVerdict("a.example", 0.9, 0.02, 0.7)
		tamper(&bad)
		if err := checkVerdictRule(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func hotFixture() ([]string, serve.VerifyResponse, map[string]serve.DomainVerdict) {
	domains := []string{"b.example", "a.example", "c.example"}
	stored := map[string]serve.DomainVerdict{
		"a.example": goodVerdict("a.example", 0.9, 0.05, 0.7),
		"b.example": goodVerdict("b.example", 0.2, 0.01, 0.1),
		"c.example": goodVerdict("c.example", 0.9, 0.05, 0.7), // ties a.example
	}
	var resp serve.VerifyResponse
	for _, d := range domains {
		v := stored[d]
		v.Cached = true
		resp.Results = append(resp.Results, v)
	}
	resp.Ranking = []string{"a.example", "c.example", "b.example"}
	return domains, resp, stored
}

func TestCheckHotReply(t *testing.T) {
	domains, resp, stored := hotFixture()
	if err := checkHotReply(domains, resp, stored); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	for name, tamper := range map[string]func(*serve.VerifyResponse){
		"unsorted ranking":   func(r *serve.VerifyResponse) { r.Ranking = []string{"b.example", "a.example", "c.example"} },
		"tie order reversed": func(r *serve.VerifyResponse) { r.Ranking = []string{"c.example", "a.example", "b.example"} },
		"ranking repeats":    func(r *serve.VerifyResponse) { r.Ranking = []string{"a.example", "a.example", "b.example"} },
		"ranking short":      func(r *serve.VerifyResponse) { r.Ranking = r.Ranking[:2] },
		"wrong rank":         func(r *serve.VerifyResponse) { r.Results[0].Rank = 5 },
		"flipped decision":   func(r *serve.VerifyResponse) { r.Results[1].Legitimate = !r.Results[1].Legitimate },
		"not cached":         func(r *serve.VerifyResponse) { r.Results[2].Cached = false },
		"result missing":     func(r *serve.VerifyResponse) { r.Results = r.Results[:2] },
	} {
		d, r, s := hotFixture()
		tamper(&r)
		if err := checkHotReply(d, r, s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckSweep(t *testing.T) {
	corpus := []string{"a.example", "b.example", "c.example"}
	if err := checkSweep(corpus, map[string]int{"a.example": 1, "b.example": 1, "c.example": 1}, 0); err != nil {
		t.Fatalf("complete sweep rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		seen map[string]int
		errs int
	}{
		"skipped domain": {map[string]int{"a.example": 1, "c.example": 1}, 0},
		"twice":          {map[string]int{"a.example": 2, "b.example": 1, "c.example": 1}, 0},
		"stranger":       {map[string]int{"a.example": 1, "b.example": 1, "z.example": 1}, 0},
		"error":          {map[string]int{"a.example": 1, "b.example": 1, "c.example": 1}, 1},
	} {
		if err := checkSweep(corpus, tc.seen, tc.errs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSameVerdictIgnoresHowItWasServed(t *testing.T) {
	a := goodVerdict("a.example", 0.9, 0.05, 0.7)
	b := a
	b.Cached = true
	if err := sameVerdict(b, a); err != nil {
		t.Fatalf("cache flag compared: %v", err)
	}
	b.TrustScore += 1e-12
	if err := sameVerdict(b, a); err == nil {
		t.Fatal("different trust score accepted")
	}
}

func TestCheckConfusion(t *testing.T) {
	c := eval.Confusion{TP: 30, FN: 2, FP: 1, TN: 229}
	if err := checkConfusion("cell", c, 262); err != nil {
		t.Fatalf("counts summing to the snapshot rejected: %v", err)
	}
	c.TN--
	if err := checkConfusion("cell", c, 262); err == nil || !strings.Contains(err.Error(), "261") {
		t.Fatalf("counts that do not sum accepted: %v", err)
	}
}
