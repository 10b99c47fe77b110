package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pharmaverify/internal/core"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/dataset"
)

// candidateVerifier trains a second model on the shared test snapshot
// with different options, so its fingerprint differs from the live
// test verifier's.
func candidateVerifier(t testing.TB) *core.Verifier {
	t.Helper()
	_, snap, live := testVerifier(t)
	cand, err := core.Train(snap, core.Options{Classifier: core.NBM, Terms: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if cand.Fingerprint() == live.Fingerprint() {
		t.Fatal("candidate model is not distinguishable from the live one")
	}
	return cand
}

func TestSetShadowRejectsNilAndIdentical(t *testing.T) {
	_, _, v := testVerifier(t)
	w, _, _ := testVerifier(t)
	s, err := New(v, Config{Fetcher: w})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	if err := s.SetShadow(nil); err == nil {
		t.Fatal("SetShadow(nil) accepted")
	}
	if err := s.SetShadow(v); err != ErrShadowIdentical {
		t.Fatalf("SetShadow(live model) = %v, want ErrShadowIdentical", err)
	}
	if s.ShadowActive() {
		t.Fatal("rejected candidates must not activate the shadow")
	}
	if _, err := s.PromoteShadow(); err != ErrNoShadow {
		t.Fatalf("PromoteShadow with no candidate = %v, want ErrNoShadow", err)
	}
}

// TestShadowPromotionMatchesManualReload pins the acceptance criterion:
// promoting a shadow is bit-identical to a manual SIGHUP reload of the
// same model — the served fingerprint after either path is the model
// file's own fingerprint.
func TestShadowPromotionMatchesManualReload(t *testing.T) {
	w, _, v := testVerifier(t)
	cand := candidateVerifier(t)

	promoted, err := New(v, Config{Fetcher: w})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(promoted.Close)
	reloaded, err := New(v, Config{Fetcher: w})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reloaded.Close)

	if err := promoted.SetShadow(cand); err != nil {
		t.Fatal(err)
	}
	fp, err := promoted.PromoteShadow()
	if err != nil {
		t.Fatal(err)
	}
	reloaded.SwapModel(cand) // the SIGHUP path, by hand

	if fp != cand.Fingerprint() {
		t.Fatalf("PromoteShadow returned %s, want the candidate's fingerprint %s", fp, cand.Fingerprint())
	}
	if promoted.ModelFingerprint() != reloaded.ModelFingerprint() {
		t.Fatalf("promotion served %s, manual reload served %s — the paths diverged",
			promoted.ModelFingerprint(), reloaded.ModelFingerprint())
	}
	if promoted.ShadowActive() {
		t.Fatal("shadow slot not cleared after promotion")
	}
	if n := promoted.met.shadowPromotions.Value(); n != 1 {
		t.Fatalf("shadowPromotions = %d, want 1", n)
	}
	// Both servers now agree with a third doing SwapModel: the promoted
	// model's sketch is the new drift baseline.
	if promoted.TrainingSketch() == nil {
		t.Fatal("promoted model lost its training sketch")
	}
}

func TestDemoteShadowDropsCandidate(t *testing.T) {
	w, _, v := testVerifier(t)
	s, err := New(v, Config{Fetcher: w})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	s.DemoteShadow() // no candidate: a no-op, not a counted demotion
	if n := s.met.shadowDemotions.Value(); n != 0 {
		t.Fatalf("demotions after no-op = %d, want 0", n)
	}
	if err := s.SetShadow(candidateVerifier(t)); err != nil {
		t.Fatal(err)
	}
	live := s.ModelFingerprint()
	s.DemoteShadow()
	if s.ShadowActive() {
		t.Fatal("candidate survived demotion")
	}
	if s.ModelFingerprint() != live {
		t.Fatal("demotion changed the live model")
	}
	if n := s.met.shadowDemotions.Value(); n != 1 {
		t.Fatalf("demotions = %d, want 1", n)
	}
}

// TestShadowAssessFlipAndDisagreementCounting drives shadowAssess with
// fabricated live verdicts, so the flip/disagreement bookkeeping is
// checked without depending on two models actually disagreeing.
func TestShadowAssessFlipAndDisagreementCounting(t *testing.T) {
	w, _, v := testVerifier(t)
	s, err := New(v, Config{Fetcher: w})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	st := &shadowState{slot: &modelSlot{v: v, fingerprint: v.Fingerprint()}}

	// Model-independent evidence only: the shadow votes identically, so
	// a live verdict consistent with the vote must not flip…
	p := dataset.Pharmacy{Domain: "x.test"}
	agree := &DomainVerdict{Domain: "x.test", Legitimate: true,
		Sources: []SourceContribution{{Name: "registry", Prob: 0.9}}}
	s.shadowAssess(st, p, agree)
	if a, f := st.assessed.Load(), st.flips.Load(); a != 1 || f != 0 {
		t.Fatalf("after agreeing verdict: assessed=%d flips=%d, want 1, 0", a, f)
	}

	// …and a live class contradicting the fused shadow vote must.
	flip := &DomainVerdict{Domain: "x.test", Legitimate: false,
		Sources: []SourceContribution{{Name: "registry", Prob: 0.9}}}
	s.shadowAssess(st, p, flip)
	if a, f := st.assessed.Load(), st.flips.Load(); a != 2 || f != 1 {
		t.Fatalf("after contradicting verdict: assessed=%d flips=%d, want 2, 1", a, f)
	}

	// A live text vote on the wrong side of the shadow's own text prob
	// books a per-source disagreement.
	terms := []string{"pharmacy", "licensed"}
	shadowProb := v.TextProb(terms)
	liveProb := 0.9
	if shadowProb >= 0.5 {
		liveProb = 0.1
	}
	tv := &DomainVerdict{Domain: "x.test", Legitimate: liveProb >= 0.5,
		Sources: []SourceContribution{{Name: "text", Prob: liveProb}}}
	s.shadowAssess(st, dataset.Pharmacy{Domain: "x.test", Terms: terms}, tv)
	keys, counts := s.met.shadowDisagreements.snapshot()
	found := false
	for i, k := range keys {
		if k == "text" && counts[i].Value() == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("text disagreement not counted: %v %v", keys, counts)
	}

	// A verdict with no contributing sources is not an assessment.
	s.shadowAssess(st, p, &DomainVerdict{Domain: "x.test"})
	if a := st.assessed.Load(); a != 3 {
		t.Fatalf("sourceless verdict counted as an assessment: %d", a)
	}
}

// TestReverifyBypassesAdmission pins the acceptance criterion that the
// background sweep never takes admission slots from live traffic: with
// a single worker and a re-verification crawl parked mid-flight, the
// admission pool is untouched and a live request is still admitted.
func TestReverifyBypassesAdmission(t *testing.T) {
	w, _, v := testVerifier(t)
	bgDomain := pickDomain(t, true)
	liveDomain := pickDomain(t, false)
	gate := &gatedFetcher{inner: w, started: make(chan string, 16), release: make(chan struct{})}
	s, err := New(v, Config{Fetcher: gate, Workers: 1, QueueDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	obsc := make(chan error, 1)
	go func() {
		_, err := s.Reverify(context.Background(), bgDomain)
		obsc <- err
	}()
	select {
	case <-gate.started: // the background crawl is in flight
	case <-time.After(5 * time.Second):
		t.Fatal("background re-verification never reached the fetcher")
	}
	if n := s.adm.inService(); n != 0 {
		t.Fatalf("background sweep occupies %d admission slot(s)", n)
	}

	// The lone worker slot is free: a live request is admitted and its
	// crawl starts while the sweep is still parked.
	livec := make(chan error, 1)
	go func() {
		livec <- s.adm.acquire(context.Background())
	}()
	select {
	case err := <-livec:
		if err != nil {
			t.Fatalf("live admission failed during background sweep: %v", err)
		}
		s.adm.release()
	case <-time.After(5 * time.Second):
		t.Fatal("live request starved by the background sweep")
	}

	close(gate.release)
	if err := <-obsc; err != nil {
		t.Fatalf("background re-verification failed: %v", err)
	}
	_ = liveDomain
}

// TestReverifyRefreshesCacheAndCorpus: a background sweep's verdict is
// what the next live request serves (a cache hit, no second crawl), and
// the swept domain is a corpus member.
func TestReverifyRefreshesCacheAndCorpus(t *testing.T) {
	w, _, v := testVerifier(t)
	domain := pickDomain(t, true)
	cf := newCountingFetcher(w)
	s, err := New(v, Config{Fetcher: cf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	obs, err := s.Reverify(context.Background(), domain)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Domain != domain || obs.Pages == 0 || len(obs.Terms) == 0 {
		t.Fatalf("implausible observation: %+v", obs)
	}
	if obs.Verdict.Error != "" {
		t.Fatalf("verdict error: %s", obs.Verdict.Error)
	}
	if got := s.Corpus(); len(got) != 1 || got[0] != domain {
		t.Fatalf("corpus after sweep = %v, want [%s]", got, domain)
	}

	lv := s.verifyDomain(context.Background(), s.model.Load(), domain, false)
	if !lv.Cached {
		t.Fatal("live request after a sweep re-crawled instead of hitting the refreshed cache")
	}
	if lv.Legitimate != obs.Verdict.Legitimate {
		t.Fatal("cached verdict disagrees with the sweep's")
	}
	if n := cf.rootFetches(domain); n != 1 {
		t.Fatalf("domain crawled %d times, want exactly the sweep's one", n)
	}
}

// TestReverifySweepKeepsLiveVerdictsCached: a sweep over a corpus larger
// than the verdict cache — Dataset 1's 1459 domains against the default
// CacheSize of 1024 — must not flush the verdicts live traffic is
// hitting. The corpus is synthetic one-page pharmacies (the sweep's
// cache writes do not depend on what the pages say).
func TestReverifySweepKeepsLiveVerdictsCached(t *testing.T) {
	_, _, v := testVerifier(t)
	const corpusSize, served = 1459, 64
	corpus := make([]string, corpusSize)
	for i := range corpus {
		corpus[i] = fmt.Sprintf("sweep%04d.test", i)
	}
	fetch := crawler.FetcherFunc(func(domain, path string) (string, error) {
		return fmt.Sprintf(`<html><head><title>%s pharmacy</title></head><body><p>order prescription medicine online</p>`+
			`<a href="http://hub%d.example/">partner</a> <a href="https://www.fda.gov/">fda</a></body></html>`, domain, len(domain)%7), nil
	})
	s, err := New(v, Config{Fetcher: fetch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx := context.Background()
	cached := func() int {
		n := 0
		for _, d := range corpus[:served] {
			if s.verifyDomain(ctx, s.model.Load(), d, false).Cached {
				n++
			}
		}
		return n
	}
	cached() // first requests crawl and cache
	if n := cached(); n != served {
		t.Fatalf("%d/%d served verdicts cached before the sweep", n, served)
	}
	for _, d := range corpus {
		if _, err := s.Reverify(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if n := cached(); n != served {
		t.Fatalf("%d/%d served verdicts still cached after a %d-domain sweep", n, served, corpusSize)
	}
	if _, _, _, evictions := s.cache.stats(); evictions != 0 {
		t.Errorf("the sweep evicted %d verdicts", evictions)
	}
}

func TestAddCorpusDomainsNormalizesAndBounds(t *testing.T) {
	w, _, v := testVerifier(t)
	s, err := New(v, Config{Fetcher: w, CorpusMaxDomains: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	n := s.AddCorpusDomains([]string{"HTTPS://WWW.A.test/checkout", "a.test", "b.test:8443", "c.test", ""})
	if n != 3 { // a.test (twice, deduped), b.test; c.test dropped at the cap
		t.Fatalf("AddCorpusDomains admitted %d, want 3", n)
	}
	if got := s.Corpus(); len(got) != 2 || got[0] != "a.test" || got[1] != "b.test" {
		t.Fatalf("corpus = %v, want [a.test b.test]", got)
	}
	if s.CorpusSize() != 2 {
		t.Fatalf("CorpusSize = %d, want 2", s.CorpusSize())
	}
}
