package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pharmaverify/internal/core"
	"pharmaverify/internal/dataset"
)

// transitionLog collects breaker state changes for schedule assertions.
type transitionLog struct {
	mu sync.Mutex
	ts []breakerState
}

func (l *transitionLog) record(to breakerState) {
	l.mu.Lock()
	l.ts = append(l.ts, to)
	l.mu.Unlock()
}

func (l *transitionLog) states() []breakerState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]breakerState(nil), l.ts...)
}

func assertTransitions(t *testing.T, log *transitionLog, want ...breakerState) {
	t.Helper()
	got := log.states()
	if len(got) != len(want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d is %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestBreakerLifecycleDeterministic pins the full closed → open →
// half-open → closed schedule on an injected clock: every transition
// happens at an exactly predictable record/allow call.
func TestBreakerLifecycleDeterministic(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	log := &transitionLog{}
	b := newBreaker(4, 2, 10*time.Second, 2, clock.now, log.record)

	// Closed: successes keep it closed, the first failure is tolerated.
	for i := 0; i < 4; i++ {
		if ok, probe := b.allow(); !ok || probe {
			t.Fatalf("closed breaker denied request %d", i)
		}
		b.record(false, false)
	}
	b.record(true, false)
	if got := b.currentState(); got != breakerClosed {
		t.Fatalf("state after 1 failure in window = %v, want closed", got)
	}

	// The second failure within the window opens it.
	b.record(true, false)
	if got := b.currentState(); got != breakerOpen {
		t.Fatalf("state after 2 failures = %v, want open", got)
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	clock.advance(9 * time.Second)
	if ok, _ := b.allow(); ok {
		t.Fatal("open breaker admitted a request 1s before cooldown lapse")
	}

	// Cooldown lapsed: the next request is the half-open probe; a second
	// concurrent request is still fast-failed while the probe is out.
	clock.advance(time.Second)
	ok, probe := b.allow()
	if !ok || !probe {
		t.Fatalf("post-cooldown allow = (%v, %v), want a probe", ok, probe)
	}
	if got := b.currentState(); got != breakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Two consecutive probe successes close it; one is not enough.
	b.record(false, true)
	if got := b.currentState(); got != breakerHalfOpen {
		t.Fatalf("state after 1 of 2 probes = %v, want half-open", got)
	}
	ok, probe = b.allow()
	if !ok || !probe {
		t.Fatal("half-open breaker denied the second probe")
	}
	b.record(false, true)
	if got := b.currentState(); got != breakerClosed {
		t.Fatalf("state after %d probe successes = %v, want closed", 2, got)
	}
	assertTransitions(t, log, breakerOpen, breakerHalfOpen, breakerClosed)

	// Recovery wiped the outage's failure history: one fresh failure
	// must not instantly reopen.
	if ok, probe := b.allow(); !ok || probe {
		t.Fatal("recovered breaker not serving normally")
	}
	b.record(true, false)
	if got := b.currentState(); got != breakerClosed {
		t.Fatalf("state after 1 failure post-recovery = %v, want closed", got)
	}
}

// TestBreakerProbeFailureReopens: a failed half-open probe restarts the
// cooldown from the probe's failure time.
func TestBreakerProbeFailureReopens(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	log := &transitionLog{}
	b := newBreaker(4, 1, 10*time.Second, 1, clock.now, log.record)

	b.record(true, false) // opens (threshold 1)
	clock.advance(10 * time.Second)
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("cooldown lapse did not admit a probe")
	}
	b.record(true, true) // probe failed: reopen
	if got := b.currentState(); got != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("reopened breaker admitted a request with no new cooldown")
	}
	clock.advance(10 * time.Second)
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("second cooldown lapse did not admit a probe")
	}
	b.record(false, true)
	if got := b.currentState(); got != breakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	assertTransitions(t, log, breakerOpen, breakerHalfOpen, breakerOpen, breakerHalfOpen, breakerClosed)
}

// TestBreakerWindowSlides: outcomes leaving the rolling window stop
// counting — interleaved failures below the in-window threshold never
// open the breaker, while the same total delivered consecutively does.
func TestBreakerWindowSlides(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	b := newBreaker(4, 3, time.Second, 1, clock.now, nil)

	// F S F S F S F S …: never more than 2 failures inside any 4-wide
	// window, so 8 total failures leave it closed.
	for i := 0; i < 16; i++ {
		b.record(i%2 == 0, false)
		if got := b.currentState(); got != breakerClosed {
			t.Fatalf("interleaved failures opened the breaker at outcome %d", i)
		}
	}
	// Flush the window clean, then three consecutive failures land
	// inside one window: open.
	for i := 0; i < 4; i++ {
		b.record(false, false)
	}
	b.record(true, false)
	b.record(true, false)
	if got := b.currentState(); got != breakerClosed {
		t.Fatal("breaker opened one failure early")
	}
	b.record(true, false)
	if got := b.currentState(); got != breakerOpen {
		t.Fatalf("3 consecutive failures left the breaker %v, want open", b.currentState())
	}
}

// TestBreakerCancelIsNeutral: a cancelled call (client went away)
// releases a probe slot without voting either way.
func TestBreakerCancelIsNeutral(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	b := newBreaker(4, 1, 10*time.Second, 1, clock.now, nil)
	b.record(true, false) // open
	clock.advance(10 * time.Second)
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("no probe admitted after cooldown")
	}
	b.cancel(true) // the probe's caller disconnected: no verdict
	if got := b.currentState(); got != breakerHalfOpen {
		t.Fatalf("state after cancelled probe = %v, want half-open", got)
	}
	// The slot is free again for the next probe.
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("cancelled probe did not release the half-open slot")
	}
	b.record(false, true)
	if got := b.currentState(); got != breakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestBulkheadShedsBeyondCap(t *testing.T) {
	bh := newBulkhead(2)
	if !bh.tryAcquire() || !bh.tryAcquire() {
		t.Fatal("bulkhead denied slots under its cap")
	}
	if bh.tryAcquire() {
		t.Fatal("bulkhead admitted a third caller over a cap of 2")
	}
	if got := bh.inFlight(); got != 2 {
		t.Fatalf("inFlight = %d, want 2", got)
	}
	bh.release()
	if !bh.tryAcquire() {
		t.Fatal("released slot not reusable")
	}
}

// scriptedSource is a fully controllable EvidenceSource for resilience
// tests: its behaviour is switched per phase, and hangs block on a
// test-owned gate (or the assessment context) so the timing of every
// failure is the test's to choose.
type scriptedSource struct {
	name string

	mu   sync.Mutex
	mode string  // "ok" | "abstain" | "err" | "hang" | "hang-ctx"
	prob float64 // the vote in "ok" mode

	gate  chan struct{} // releases "hang" mode assessments
	calls int
}

func newScriptedSource(name, mode string, prob float64) *scriptedSource {
	return &scriptedSource{name: name, mode: mode, prob: prob, gate: make(chan struct{})}
}

func (s *scriptedSource) setMode(mode string) {
	s.mu.Lock()
	s.mode = mode
	s.mu.Unlock()
}

func (s *scriptedSource) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *scriptedSource) Name() string  { return s.name }
func (s *scriptedSource) Healthy() bool { return true }

func (s *scriptedSource) Assess(ctx context.Context, _ *core.Verifier, _ dataset.Pharmacy) (Evidence, error) {
	s.mu.Lock()
	mode, prob := s.mode, s.prob
	s.calls++
	s.mu.Unlock()
	switch mode {
	case "ok":
		return Evidence{Prob: prob}, nil
	case "abstain":
		return Evidence{}, errNoEvidence
	case "err":
		return Evidence{}, errors.New("scripted backend failure")
	case "hang": // only the test's gate releases it — never the deadline
		<-s.gate
		return Evidence{}, errors.New("scripted hang released")
	default: // "hang-ctx": blocks until the assessment context ends
		<-ctx.Done()
		return Evidence{}, ctx.Err()
	}
}

// guardCfg is a minimal Config for direct guardedSource construction.
func guardCfg(clock *fakeClock) Config {
	return Config{
		SourceTimeout:     25 * time.Millisecond,
		SourceConcurrency: 1,
		BreakerWindow:     4,
		BreakerFailures:   1,
		BreakerCooldown:   10 * time.Second,
		BreakerProbes:     1,
		now:               clock.now,
	}
}

// TestGuardedSourceTimeoutTripsBreaker: an assessment that outlives the
// per-source deadline fails the caller promptly, counts as a timeout
// and a breaker failure, and keeps its bulkhead slot occupied until the
// source actually returns.
func TestGuardedSourceTimeoutTripsBreaker(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	src := newScriptedSource("scripted", "hang", 0)
	met := newMetrics(&Server{})
	g := newGuardedSource(src, guardCfg(clock), met)

	_, err := g.Assess(context.Background(), nil, dataset.Pharmacy{Domain: "d"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung assessment returned %v, want a deadline error", err)
	}
	if got := labelCount(met.sourceTimeouts, "scripted"); got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}
	if got := g.BreakerState(); got != "open" {
		t.Errorf("breaker after timeout = %q, want open (threshold 1)", got)
	}
	if g.Healthy() {
		t.Error("tripped source still reports healthy")
	}
	// The abandoned assessment still owns the bulkhead slot: the hung
	// backend, not the daemon, pays for its own slowness.
	if got := g.bh.inFlight(); got != 1 {
		t.Errorf("bulkhead inFlight = %d while the source hangs, want 1", got)
	}
	close(src.gate)
	waitFor(t, func() bool { return g.bh.inFlight() == 0 }, "bulkhead slot released after the source returned")
}

// TestGuardedSourceShedsWhenSaturated: with every bulkhead slot stuck
// behind a hung backend, further assessments shed immediately (no
// queueing) and the shed counts as a breaker failure.
func TestGuardedSourceShedsWhenSaturated(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	src := newScriptedSource("scripted", "hang", 0)
	met := newMetrics(&Server{})
	cfg := guardCfg(clock)
	cfg.SourceTimeout = time.Hour // nothing times out; saturation is the signal
	g := newGuardedSource(src, cfg, met)

	started := make(chan struct{})
	go func() {
		close(started)
		g.Assess(context.Background(), nil, dataset.Pharmacy{Domain: "d"})
	}()
	<-started
	waitFor(t, func() bool { return g.bh.inFlight() == 1 }, "first assessment occupies the only slot")

	_, err := g.Assess(context.Background(), nil, dataset.Pharmacy{Domain: "d"})
	if !errors.Is(err, errSourceSaturated) {
		t.Fatalf("saturated source returned %v, want errSourceSaturated", err)
	}
	if got := labelCount(met.sourceSheds, "scripted"); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	if got := g.BreakerState(); got != "open" {
		t.Errorf("breaker after shed = %q, want open (saturation is a failure)", got)
	}
	if _, err := g.Assess(context.Background(), nil, dataset.Pharmacy{Domain: "d"}); !errors.Is(err, errSourceOpen) {
		t.Fatalf("open breaker returned %v, want errSourceOpen", err)
	}
	if got := labelCount(met.breakerRejects, "scripted"); got != 1 {
		t.Errorf("breaker rejection counter = %d, want 1", got)
	}
	close(src.gate)
	waitFor(t, func() bool { return g.bh.inFlight() == 0 }, "bulkhead drained")
}

// TestGuardedSourceAbstentionIsHealthy: errNoEvidence is a healthy
// answer — even with the failure threshold at 1, repeated abstention
// never trips the breaker.
func TestGuardedSourceAbstentionIsHealthy(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	src := newScriptedSource("scripted", "abstain", 0)
	g := newGuardedSource(src, guardCfg(clock), newMetrics(&Server{}))
	for i := 0; i < 10; i++ {
		if _, err := g.Assess(context.Background(), nil, dataset.Pharmacy{Domain: "d"}); !errors.Is(err, errNoEvidence) {
			t.Fatalf("abstaining source returned %v", err)
		}
	}
	if got := g.BreakerState(); got != "closed" {
		t.Errorf("breaker after 10 abstentions = %q, want closed", got)
	}
}

// TestGuardedSourceParentCancelIsNeutral: the caller disconnecting
// mid-assessment gives the source no vote — a healthy backend must not
// trip because its clients are impatient.
func TestGuardedSourceParentCancelIsNeutral(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	src := newScriptedSource("scripted", "hang-ctx", 0)
	cfg := guardCfg(clock)
	cfg.SourceTimeout = time.Hour
	g := newGuardedSource(src, cfg, newMetrics(&Server{}))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Assess(ctx, nil, dataset.Pharmacy{Domain: "d"})
		done <- err
	}()
	waitFor(t, func() bool { return src.callCount() == 1 }, "assessment reached the source")
	cancel()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled assessment returned %v, want context.Canceled", err)
	}
	if got := g.BreakerState(); got != "closed" {
		t.Errorf("breaker after client cancel = %q, want closed (threshold 1)", got)
	}
	waitFor(t, func() bool { return g.bh.inFlight() == 0 }, "bulkhead drained after cancel")
}

// labelCount reads one label's count off a labelCounter.
func labelCount(lc *labelCounter, label string) uint64 {
	keys, counts := lc.snapshot()
	for i, k := range keys {
		if k == label {
			return counts[i].Value()
		}
	}
	return 0
}

// waitFor polls cond for up to 5s — for conditions that become true
// as background goroutines unwind.
func waitFor(t testing.TB, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for: %s", what)
}

// TestConfigResilienceDefaults pins the defaulting and clamping of the
// resilience knobs.
func TestConfigResilienceDefaults(t *testing.T) {
	c := Config{Fetcher: nil}.withDefaults()
	if c.SourceTimeout != 2*time.Second || c.SourceConcurrency != 8 ||
		c.BreakerWindow != 16 || c.BreakerFailures != 8 ||
		c.BreakerCooldown != 10*time.Second || c.BreakerProbes != 2 ||
		c.MinEvidence != 1 || c.MaxStale != time.Hour {
		t.Errorf("unexpected resilience defaults: %+v", c)
	}
	clamped := Config{BreakerWindow: 4, BreakerFailures: 9}.withDefaults()
	if clamped.BreakerFailures != 4 {
		t.Errorf("BreakerFailures = %d, want clamped to the window (4)", clamped.BreakerFailures)
	}
	off := Config{MaxStale: -1}.withDefaults()
	if off.MaxStale != 0 {
		t.Errorf("negative MaxStale = %v, want disabled (0)", off.MaxStale)
	}
}

// TestJitterIntervalBounds: every drawn tick interval stays within
// ±20% of the nominal period, and the same seed reproduces the same
// schedule (satellite: seeded refresh jitter).
func TestJitterIntervalBounds(t *testing.T) {
	draw := func(seed int64, n int) []time.Duration {
		rng := newJitterRNG(seed)
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = jitterInterval(rng, time.Second)
		}
		return out
	}
	a, b := draw(42, 500), draw(42, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 800*time.Millisecond || a[i] >= 1200*time.Millisecond {
			t.Fatalf("draw %d = %v, outside [0.8s, 1.2s)", i, a[i])
		}
	}
	c := draw(43, 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical jitter schedules")
	}
}

// TestBreakerStateStrings pins the /readyz and /metrics vocabulary.
func TestBreakerStateStrings(t *testing.T) {
	if breakerClosed.String() != "closed" || breakerHalfOpen.String() != "half-open" || breakerOpen.String() != "open" {
		t.Errorf("unexpected breaker state names: %v %v %v", breakerClosed, breakerHalfOpen, breakerOpen)
	}
	if !strings.Contains(errInsufficientEvidence.Error(), "insufficient evidence") {
		t.Errorf("quorum error text %q lost its meaning", errInsufficientEvidence)
	}
}
