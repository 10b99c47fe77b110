package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pharmaverify/internal/core"
	"pharmaverify/internal/dataset"
)

// The serving tier treats partial failure as the normal case: every
// evidence source is wrapped in a guardedSource that layers, in order,
// a circuit breaker (a source that keeps failing is fast-failed instead
// of re-probed on every request), a bulkhead (a slow source saturates
// its own concurrency slots, never the daemon's worker pool), and a
// per-source deadline (one assessment can hang without holding the
// whole fusion hostage). A source tripped out of the fusion degrades
// the verdict to the remaining sources; the quorum and stale-fallback
// policy in pipeline.go decides what happens when too few survive.

// errSourceOpen is returned without consulting the source while its
// circuit breaker is open: the source failed enough recent assessments
// that probing it on every request would only add latency.
var errSourceOpen = errors.New("serve: evidence source circuit breaker open")

// errSourceSaturated is returned when a source's bulkhead has no free
// slot: every allowed concurrent assessment of this source is already
// in flight (typically stuck behind a slow or hung backend).
var errSourceSaturated = errors.New("serve: evidence source bulkhead saturated")

// errInsufficientEvidence is returned by the fusion when fewer sources
// contributed than the configured quorum (MinEvidence) requires. It is
// the trigger for the stale-verdict fallback.
var errInsufficientEvidence = errors.New("serve: insufficient evidence for a verdict")

// breakerState is the classic three-state circuit-breaker lifecycle.
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// breaker is a rolling-window circuit breaker. Closed, it records the
// last `window` assessment outcomes in a ring; once `failures` of them
// are failures it opens. Open, it fast-fails everything until
// `cooldown` has elapsed on the injected clock, then transitions to
// half-open and admits one probe at a time. `probes` consecutive probe
// successes close it again; any probe failure reopens it and restarts
// the cooldown. All transitions are functions of (recorded outcomes,
// injected clock), so tests pin the exact schedule deterministically.
type breaker struct {
	window   int
	failures int
	cooldown time.Duration
	probes   int
	now      func() time.Time
	// onTransition observes every state change (metrics hook); called
	// with the lock held, so it must not call back into the breaker.
	onTransition func(to breakerState)

	mu       sync.Mutex
	state    breakerState
	ring     []bool // true = failure; ring[head] is overwritten next
	head     int
	filled   int
	failing  int // failures currently inside the window
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	probeOK  int  // consecutive successful probes this half-open cycle
}

func newBreaker(window, failures int, cooldown time.Duration, probes int, now func() time.Time, onTransition func(breakerState)) *breaker {
	if failures > window {
		failures = window
	}
	return &breaker{
		window:       window,
		failures:     failures,
		cooldown:     cooldown,
		probes:       probes,
		now:          now,
		onTransition: onTransition,
		ring:         make([]bool, window),
	}
}

func (b *breaker) transition(to breakerState) {
	b.state = to
	if b.onTransition != nil {
		b.onTransition(to)
	}
}

// allow reports whether a request may consult the source right now, and
// whether it does so as a half-open probe. A denied request must not
// call record or cancel; an allowed one must call exactly one of them.
func (b *breaker) allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false, false
		}
		b.transition(breakerHalfOpen)
		b.probeOK = 0
		b.probing = true
		return true, true
	default: // half-open: one probe at a time
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// record feeds one assessment outcome back.
func (b *breaker) record(failure, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		if b.state != breakerHalfOpen {
			return
		}
		if failure {
			b.openedAt = b.now()
			b.transition(breakerOpen)
			return
		}
		b.probeOK++
		if b.probeOK >= b.probes {
			// Recovered: forget the failure history of the outage.
			b.ring = make([]bool, b.window)
			b.head, b.filled, b.failing = 0, 0, 0
			b.transition(breakerClosed)
		}
		return
	}
	if b.state != breakerClosed {
		return // a late outcome from before a transition carries no vote
	}
	if b.filled == b.window && b.ring[b.head] {
		b.failing-- // the outcome sliding out of the window was a failure
	}
	b.ring[b.head] = failure
	b.head = (b.head + 1) % b.window
	if b.filled < b.window {
		b.filled++
	}
	if failure {
		b.failing++
		if b.failing >= b.failures {
			b.openedAt = b.now()
			b.transition(breakerOpen)
		}
	}
}

// cancel releases an allowed call without recording an outcome — used
// when the caller went away (context cancelled) rather than the source
// failing: a disconnecting client must not trip a healthy source's
// breaker.
func (b *breaker) cancel(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// currentState reports the state for /readyz and /metrics. An open
// breaker whose cooldown has lapsed still reads "open" until the next
// request promotes it to half-open — state changes only on traffic.
func (b *breaker) currentState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// bulkhead is a per-source concurrency cap: tryAcquire never blocks, so
// when every slot is stuck behind a slow backend the caller sheds
// immediately instead of queueing the daemon's worker pool behind it.
type bulkhead struct{ slots chan struct{} }

func newBulkhead(n int) *bulkhead {
	if n < 1 {
		n = 1
	}
	return &bulkhead{slots: make(chan struct{}, n)}
}

func (b *bulkhead) tryAcquire() bool {
	select {
	case b.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (b *bulkhead) release() { <-b.slots }

// inFlight reports the occupied slots (for tests and metrics).
func (b *bulkhead) inFlight() int { return len(b.slots) }

// guardedSource wraps one EvidenceSource with the full resilience
// stack. It implements EvidenceSource itself, so the fusion loop treats
// guarded and bare sources identically.
type guardedSource struct {
	inner   EvidenceSource
	brk     *breaker
	bh      *bulkhead
	timeout time.Duration // per-assessment deadline; <= 0 = unbounded
	met     *metrics
}

// newGuardedSource builds the resilience wrapper for one source from
// the server's config.
func newGuardedSource(src EvidenceSource, cfg Config, met *metrics) *guardedSource {
	name := src.Name()
	brk := newBreaker(cfg.BreakerWindow, cfg.BreakerFailures, cfg.BreakerCooldown, cfg.BreakerProbes, cfg.now,
		func(to breakerState) { met.breakerTransitions.with(name + "|" + to.String()).Inc() })
	return &guardedSource{
		inner:   src,
		brk:     brk,
		bh:      newBulkhead(cfg.SourceConcurrency),
		timeout: cfg.SourceTimeout,
		met:     met,
	}
}

func (g *guardedSource) Name() string { return g.inner.Name() }

// Healthy reports readiness: the wrapped source's own health gated by
// the breaker — a tripped source is not ready even if it would answer.
func (g *guardedSource) Healthy() bool {
	return g.brk.currentState() == breakerClosed && g.inner.Healthy()
}

// BreakerState exposes the breaker's lifecycle state (for /readyz and
// the /metrics gauge).
func (g *guardedSource) BreakerState() string { return g.brk.currentState().String() }

// assessResult carries one inner assessment across the deadline select.
type assessResult struct {
	ev  Evidence
	err error
}

// Assess runs the wrapped source under the breaker, bulkhead and
// per-source deadline. The inner assessment runs in its own goroutine
// holding the bulkhead slot: if it outlives the deadline, the slot
// stays occupied until the source actually returns — which is exactly
// the signal that sheds further traffic off a hung backend instead of
// piling more goroutines onto it.
func (g *guardedSource) Assess(ctx context.Context, model *core.Verifier, p dataset.Pharmacy) (Evidence, error) {
	name := g.inner.Name()
	ok, probe := g.brk.allow()
	if !ok {
		g.met.breakerRejects.with(name).Inc()
		return Evidence{}, fmt.Errorf("%s: %w", name, errSourceOpen)
	}
	if !g.bh.tryAcquire() {
		g.met.sourceSheds.with(name).Inc()
		// Saturation is a failure signal: a source that cannot take the
		// offered load should trip toward open like one that errors.
		g.brk.record(true, probe)
		return Evidence{}, fmt.Errorf("%s: %w", name, errSourceSaturated)
	}

	actx := ctx
	var cancel context.CancelFunc
	if g.timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, g.timeout)
		defer cancel()
	}
	done := make(chan assessResult, 1)
	go func() {
		defer g.bh.release()
		ev, err := g.inner.Assess(actx, model, p)
		done <- assessResult{ev, err}
	}()

	select {
	case r := <-done:
		switch {
		case r.err == nil, errors.Is(r.err, errNoEvidence):
			// An abstention is a healthy answer, not a failure.
			g.brk.record(false, probe)
		case errors.Is(r.err, context.Canceled):
			// The caller went away; the source gets no vote either way.
			g.brk.cancel(probe)
		default:
			g.brk.record(true, probe)
		}
		return r.ev, r.err
	case <-actx.Done():
		if errors.Is(actx.Err(), context.Canceled) && ctx.Err() != nil {
			// Parent cancellation, not a source timeout.
			g.brk.cancel(probe)
			return Evidence{}, fmt.Errorf("%s assessment abandoned: %w", name, ctx.Err())
		}
		g.met.sourceTimeouts.with(name).Inc()
		g.brk.record(true, probe)
		return Evidence{}, fmt.Errorf("%s assessment timed out after %v: %w", name, g.timeout, actx.Err())
	}
}

var _ EvidenceSource = (*guardedSource)(nil)
