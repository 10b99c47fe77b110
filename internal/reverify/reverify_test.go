package reverify

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pharmaverify/internal/checkpoint"
	"pharmaverify/internal/core"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/serve"
)

// fakeDeployment scripts the Deployment surface so scheduler, drift and
// promotion behavior are testable without crawls or trained models.
type fakeDeployment struct {
	mu          sync.Mutex
	corpus      []string
	calls       map[string]int
	totalCalls  int
	observe     func(domain string) (serve.Observation, error)
	sketch      *core.Sketch
	shadow      bool
	assessed    uint64
	flips       uint64
	promotions  []string
	demotions   int
	cancelAfter int // when > 0: cancelFn fires on reaching this many calls
	cancelFn    context.CancelFunc
}

func newFakeDeployment(corpus ...string) *fakeDeployment {
	return &fakeDeployment{
		corpus: corpus,
		calls:  make(map[string]int),
		observe: func(domain string) (serve.Observation, error) {
			return serve.Observation{
				Domain:   domain,
				Terms:    []string{"pharmacy", "refill"},
				Outbound: []string{"fda.gov"},
				Pages:    1,
			}, nil
		},
	}
}

func (f *fakeDeployment) Reverify(ctx context.Context, domain string) (serve.Observation, error) {
	f.mu.Lock()
	f.calls[domain]++
	f.totalCalls++
	if f.cancelAfter > 0 && f.totalCalls >= f.cancelAfter && f.cancelFn != nil {
		f.cancelFn()
	}
	obs := f.observe
	f.mu.Unlock()
	return obs(domain)
}

func (f *fakeDeployment) Corpus() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.corpus...)
}

func (f *fakeDeployment) TrainingSketch() *core.Sketch { return f.sketch }

func (f *fakeDeployment) ShadowActive() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shadow
}

func (f *fakeDeployment) ShadowStats() (uint64, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.assessed, f.flips
}

func (f *fakeDeployment) PromoteShadow() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.shadow {
		return "", errors.New("no shadow")
	}
	f.shadow = false
	f.promotions = append(f.promotions, "cand-fp")
	return "cand-fp", nil
}

func (f *fakeDeployment) DemoteShadow() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shadow = false
	f.demotions++
}

func (f *fakeDeployment) ModelFingerprint() string { return "live-fp" }

func (f *fakeDeployment) callCount(domain string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[domain]
}

func (f *fakeDeployment) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.totalCalls
}

// journalDigest maps every checkpoint file (relative path) to its
// SHA-256, the byte-level identity of a journal directory.
func journalDigest(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		sum := sha256.Sum256(data)
		out[rel] = string(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKillAndResumeByteIdentity pins the resumability acceptance
// criterion: a sweep killed mid-flight and restarted over the same
// journal finishes with the exact same completed-domain set and
// byte-identical journal files as an uninterrupted run — and no domain
// is re-verified twice.
func TestKillAndResumeByteIdentity(t *testing.T) {
	corpus := []string{"a.test", "b.test", "c.test", "d.test", "e.test"}

	// Reference: two uninterrupted sweeps.
	dirA := t.TempDir()
	storeA, err := checkpoint.Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	depA := newFakeDeployment(corpus...)
	if err := New(depA, Config{Checkpoint: storeA, MaxSweeps: 2, Logf: t.Logf}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Interrupted: the run dies (hard context cancel — checkpoint
	// atomicity makes this equivalent to SIGKILL for on-disk state)
	// after the third re-verification of sweep 1.
	dirB := t.TempDir()
	storeB, err := checkpoint.Open(dirB)
	if err != nil {
		t.Fatal(err)
	}
	depB := newFakeDeployment(corpus...)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	depB.cancelAfter, depB.cancelFn = 3, cancel
	err = New(depB, Config{Checkpoint: storeB, MaxSweeps: 2, Logf: t.Logf}).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if got := depB.total(); got >= 2*len(corpus) {
		t.Fatalf("kill landed after the work was already done (%d calls)", got)
	}

	// Restart: a fresh store over the surviving journal directory.
	depB.mu.Lock()
	depB.cancelAfter = 0
	depB.mu.Unlock()
	storeB2, err := checkpoint.Open(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if err := New(depB, Config{Checkpoint: storeB2, MaxSweeps: 2, Logf: t.Logf}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Exactly-once: the kill+resume pair did the same total work as the
	// uninterrupted run — every domain re-verified once per sweep.
	if got, want := depB.total(), depA.total(); got != want {
		t.Fatalf("resumed run cost %d re-verifications total, uninterrupted cost %d", got, want)
	}
	for _, d := range corpus {
		if got := depB.callCount(d); got != 2 {
			t.Fatalf("%s re-verified %d times across kill+resume, want 2", d, got)
		}
	}

	// Byte identity: same file set, same bytes.
	a, b := journalDigest(t, dirA), journalDigest(t, dirB)
	if len(a) != len(b) {
		t.Fatalf("journal file sets differ: %d vs %d files", len(a), len(b))
	}
	for rel, sum := range a {
		bsum, ok := b[rel]
		if !ok {
			t.Fatalf("resumed journal is missing %s", rel)
		}
		if bsum != sum {
			t.Fatalf("journal file %s differs between uninterrupted and resumed runs", rel)
		}
	}
}

func TestSchedulerOrdersOldestFirst(t *testing.T) {
	last := map[string]time.Time{
		"fresh.test": time.Unix(300, 0),
		"old.test":   time.Unix(100, 0),
		"mid.test":   time.Unix(200, 0),
	}
	q := newDomainQueue([]string{"fresh.test", "never2.test", "old.test", "mid.test", "never1.test"}, last)
	var got []string
	for q.Len() > 0 {
		got = append(got, q.pop())
	}
	want := []string{"never1.test", "never2.test", "old.test", "mid.test", "fresh.test"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep order = %v, want %v", got, want)
		}
	}
}

func TestPolitenessSkipsRecentDomains(t *testing.T) {
	dep := newFakeDeployment("a.test", "b.test")
	clock := time.Unix(1000, 0)
	p := New(dep, Config{Interval: time.Hour, MaxSweeps: 2, Logf: t.Logf})
	p.cfg.now = func() time.Time { return clock }
	p.cfg.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Sweep 1 verifies both; sweep 2 (same instant) skips both.
	if got := dep.total(); got != 2 {
		t.Fatalf("%d re-verifications across 2 same-instant sweeps, want 2", got)
	}
	if got := p.met.domainsSkipped.Value(); got != 2 {
		t.Fatalf("domainsSkipped = %d, want 2", got)
	}
}

func TestRateBudgetPacesCrawls(t *testing.T) {
	dep := newFakeDeployment("a.test", "b.test", "c.test")
	var paced []time.Duration
	p := New(dep, Config{Rate: 2, MaxSweeps: 1, Logf: t.Logf})
	p.cfg.sleep = func(ctx context.Context, d time.Duration) error {
		paced = append(paced, d)
		return nil
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(paced) != 3 {
		t.Fatalf("%d pacing sleeps for 3 crawls, want 3", len(paced))
	}
	for _, d := range paced {
		if d != 500*time.Millisecond {
			t.Fatalf("pacing sleep %v, want 500ms at 2 crawls/sec", d)
		}
	}
}

func TestRetrainTriggerFiresOncePerSweepAndArmsShadow(t *testing.T) {
	dep := newFakeDeployment("a.test")
	dep.sketch = &core.Sketch{Terms: map[string]float64{"licensed": 1}, Links: map[string]float64{"nabp.net": 1}, Domains: 1}
	retrains := 0
	p := New(dep, Config{
		MaxSweeps: 3,
		Drift:     DriftConfig{RetrainThreshold: 0.5, MinObservations: 1},
		Retrain: func(ctx context.Context) error {
			retrains++
			dep.mu.Lock()
			dep.shadow = true // the daemon's retrain hook arms the shadow
			dep.mu.Unlock()
			return nil
		},
		Logf: t.Logf,
	})
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The fake's observations share nothing with the sketch (TV = 1), so
	// sweep 1 triggers; sweeps 2 and 3 see an active shadow and hold.
	if retrains != 1 {
		t.Fatalf("retrain fired %d times, want 1 (shadow active suppresses re-firing)", retrains)
	}
	if p.RetrainTriggers() != 1 {
		t.Fatalf("RetrainTriggers = %d, want 1", p.RetrainTriggers())
	}
}

func TestRetrainTriggerRespectsMinObservationsAndBaseline(t *testing.T) {
	// Too few observations: no trigger even at threshold 0.
	dep := newFakeDeployment("a.test")
	dep.sketch = &core.Sketch{Terms: map[string]float64{"x": 1}, Domains: 1}
	fired := false
	p := New(dep, Config{
		MaxSweeps: 1,
		Drift:     DriftConfig{RetrainThreshold: 0, MinObservations: 5},
		Retrain:   func(ctx context.Context) error { fired = true; return nil },
		Logf:      t.Logf,
	})
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("trigger fired below MinObservations")
	}

	// No baseline (model predates sketches): drift is unmeasurable, the
	// trigger must never fire — not even at threshold 0.
	dep2 := newFakeDeployment("a.test")
	p2 := New(dep2, Config{
		MaxSweeps: 2,
		Drift:     DriftConfig{RetrainThreshold: 0, MinObservations: 1},
		Retrain:   func(ctx context.Context) error { fired = true; return nil },
		Logf:      t.Logf,
	})
	if err := p2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("trigger fired with no training sketch to measure against")
	}

	// Negative threshold: explicitly disabled.
	dep3 := newFakeDeployment("a.test")
	dep3.sketch = &core.Sketch{Terms: map[string]float64{"x": 1}, Domains: 1}
	p3 := New(dep3, Config{
		MaxSweeps: 1,
		Drift:     DriftConfig{RetrainThreshold: -1, MinObservations: 1},
		Retrain:   func(ctx context.Context) error { fired = true; return nil },
		Logf:      t.Logf,
	})
	if err := p3.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("trigger fired despite a negative (disabled) threshold")
	}
}

func TestPromotionGate(t *testing.T) {
	// Under the gate: promote, and re-baseline drift on the new model.
	dep := newFakeDeployment()
	dep.shadow, dep.assessed, dep.flips = true, 20, 1
	dep.sketch = &core.Sketch{Terms: map[string]float64{"fresh": 1}, Domains: 1}
	p := New(dep, Config{Promotion: PromotionConfig{Auto: true, MinAssessments: 16, MaxFlipRate: 0.1}, Logf: t.Logf})
	p.drift.observe([]string{"stale"}, nil) // pre-promotion drift window
	p.maybePromote()
	if len(dep.promotions) != 1 {
		t.Fatalf("promotions = %v, want one", dep.promotions)
	}
	if _, _, n, _ := p.drift.scores(); n != 0 {
		t.Fatalf("drift window not re-baselined after promotion (%d observations survive)", n)
	}

	// Over the gate: demote (the regression path).
	dep2 := newFakeDeployment()
	dep2.shadow, dep2.assessed, dep2.flips = true, 20, 10
	p2 := New(dep2, Config{Promotion: PromotionConfig{Auto: true, MinAssessments: 16, MaxFlipRate: 0.1}, Logf: t.Logf})
	p2.maybePromote()
	if dep2.demotions != 1 || len(dep2.promotions) != 0 {
		t.Fatalf("flip rate 0.5: demotions=%d promotions=%v, want 1, none", dep2.demotions, dep2.promotions)
	}

	// Below MinAssessments: the gate holds.
	dep3 := newFakeDeployment()
	dep3.shadow, dep3.assessed, dep3.flips = true, 5, 0
	p3 := New(dep3, Config{Promotion: PromotionConfig{Auto: true, MinAssessments: 16, MaxFlipRate: 0.1}, Logf: t.Logf})
	p3.maybePromote()
	if len(dep3.promotions) != 0 || dep3.demotions != 0 {
		t.Fatal("gate acted below MinAssessments")
	}

	// Auto off: measure only.
	dep4 := newFakeDeployment()
	dep4.shadow, dep4.assessed, dep4.flips = true, 100, 0
	p4 := New(dep4, Config{Promotion: PromotionConfig{Auto: false}, Logf: t.Logf})
	p4.maybePromote()
	if len(dep4.promotions) != 0 || dep4.demotions != 0 {
		t.Fatal("controller acted with Auto off")
	}
}

func TestDriftScores(t *testing.T) {
	base := &core.Sketch{
		Terms: map[string]float64{"a": 0.5, "b": 0.5},
		Links: map[string]float64{"x.com": 1},
	}
	m := newDriftMonitor(base)

	// Identical distribution: zero drift.
	m.observe([]string{"a", "b"}, []string{"x.com"})
	term, link, n, ok := m.scores()
	if !ok || n != 1 {
		t.Fatalf("scores: n=%d ok=%v", n, ok)
	}
	if term != 0 || link != 0 {
		t.Fatalf("identical distribution scored term=%v link=%v, want 0, 0", term, link)
	}

	// Disjoint vocabulary: full drift.
	m.reset(base)
	m.observe([]string{"c", "c"}, []string{"y.com"})
	term, link, _, _ = m.scores()
	if term != 1 || link != 1 {
		t.Fatalf("disjoint distribution scored term=%v link=%v, want 1, 1", term, link)
	}

	// Halfway: half the observed terms in-sketch, half out.
	m.reset(base)
	m.observe([]string{"a", "c"}, nil)
	term, _, _, _ = m.scores()
	if math.Abs(term-0.5) > 1e-12 {
		t.Fatalf("half-overlap scored %v, want 0.5", term)
	}

	// Determinism: same observations, bitwise-equal score.
	m2 := newDriftMonitor(base)
	m2.observe([]string{"a", "c"}, nil)
	term2, _, _, _ := m2.scores()
	if term != term2 {
		t.Fatal("drift score is not deterministic")
	}
}

// TestDriftCountsOnlyKeptKeys folds one seeded sweep's observations
// through the monitor, which counts only the sketch's kept keys, and
// through counters of every observed key, and requires bit-identical
// scores.
func TestDriftCountsOnlyKeptKeys(t *testing.T) {
	// Zipf-drawn vocabularies: training and sweep overlap but differ, so
	// many observed terms and endpoints fall outside the small sketch.
	draw := func(rng *rand.Rand, zipf *rand.Zipf, prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, zipf.Uint64())
		}
		return out
	}
	rng := rand.New(rand.NewSource(19))
	termZipf := rand.NewZipf(rng, 1.2, 1, 5000)
	linkZipf := rand.NewZipf(rng, 1.4, 1, 400)
	train := &dataset.Snapshot{}
	for i := 0; i < 60; i++ {
		train.Pharmacies = append(train.Pharmacies, dataset.Pharmacy{
			Terms:    draw(rng, termZipf, "t", 300),
			Outbound: draw(rng, linkZipf, "l", 8),
		})
	}
	base := core.BuildSketch(train, 64, 16)

	corpus := make([]string, 200)
	obs := make(map[string]serve.Observation, len(corpus))
	for i := range corpus {
		corpus[i] = fmt.Sprintf("d%03d.test", i)
		obs[corpus[i]] = serve.Observation{
			Domain:   corpus[i],
			Terms:    append(draw(rng, termZipf, "t", 250), draw(rng, termZipf, "new", 50)...),
			Outbound: draw(rng, linkZipf, "l", 6),
		}
	}
	dep := newFakeDeployment(corpus...)
	dep.sketch = base
	dep.observe = func(domain string) (serve.Observation, error) { return obs[domain], nil }
	p := New(dep, Config{MaxSweeps: 1, Logf: t.Logf})
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	term, link, n, ok := p.drift.scores()
	if !ok || n != len(corpus) {
		t.Fatalf("scores: %d observations, ok=%v; want %d, true", n, ok, len(corpus))
	}

	termCounts, linkCounts := map[string]int{}, map[string]int{}
	termTotal, linkTotal := 0, 0
	for _, o := range obs {
		for _, k := range o.Terms {
			termCounts[k]++
		}
		for _, k := range o.Outbound {
			linkCounts[k]++
		}
		termTotal += len(o.Terms)
		linkTotal += len(o.Outbound)
	}
	wantTerm := tvDistanceReference(base.Terms, termCounts, termTotal)
	wantLink := tvDistanceReference(base.Links, linkCounts, linkTotal)
	if math.Float64bits(term) != math.Float64bits(wantTerm) || math.Float64bits(link) != math.Float64bits(wantLink) {
		t.Fatalf("kept-key scores term=%v link=%v, all-key scores term=%v link=%v", term, link, wantTerm, wantLink)
	}
	if term <= 0 || term >= 1 || link <= 0 || link >= 1 {
		t.Fatalf("degenerate scores term=%v link=%v: the sweep does not exercise partial overlap", term, link)
	}
}

// tvDistanceReference is the drift distance over counters of every
// observed key, as the monitor kept them before it counted only the
// sketch's kept keys.
func tvDistanceReference(base map[string]float64, counts map[string]int, total int) float64 {
	if total == 0 || len(base) == 0 {
		return 0
	}
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	baseMass, obsMass, sum := 0.0, 0.0, 0.0
	for _, k := range keys {
		pk := base[k]
		qk := float64(counts[k]) / float64(total)
		sum += math.Abs(pk - qk)
		baseMass += pk
		obsMass += qk
	}
	pOther := 1 - baseMass
	if pOther < 0 {
		pOther = 0
	}
	qOther := 1 - obsMass
	if qOther < 0 {
		qOther = 0
	}
	sum += math.Abs(pOther - qOther)
	return sum / 2
}

func TestWriteMetricsRendersDriftAndSweeps(t *testing.T) {
	dep := newFakeDeployment("a.test")
	dep.sketch = &core.Sketch{Terms: map[string]float64{"licensed": 1}, Domains: 1}
	p := New(dep, Config{MaxSweeps: 1, Logf: t.Logf})
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	p.WriteMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"pharmaverify_drift_term_score",
		"pharmaverify_drift_link_score",
		"pharmaverify_drift_baseline_available 1",
		"pharmaverify_retrain_triggers_total 0",
		"pharmaverify_reverify_sweeps_total 1",
		`pharmaverify_reverify_domains_total{outcome="ok"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}
