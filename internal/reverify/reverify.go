// Package reverify is the continuous re-verification pipeline: the
// background loop that keeps a long-lived serving deployment honest as
// the web underneath it drifts. The paper's model-evolution experiment
// (Dataset 1 vs Dataset 2, six months apart) shows why it must exist —
// illegitimate pharmacies re-style their vocabulary toward legitimate
// language and churn their link farms, so a model frozen at train time
// quietly decays. This package closes the loop online, in four parts:
//
//   - A corpus scheduler sweeps the deployment's known-domain corpus on
//     a priority queue (oldest verdict first), re-crawling each domain
//     through the serving pipeline under a per-domain politeness
//     interval and a global crawl-rate budget — without ever taking
//     admission slots from live traffic.
//   - A drift monitor folds every fresh observation into streaming
//     term- and link-frequency counters and scores their total-
//     variation distance against the model's train-time sketch
//     (core.Sketch); the scores are /metrics gauges and, past a
//     configurable threshold, a retrain trigger.
//   - The retrain trigger arms a shadow deployment: a candidate model
//     silently double-assesses live traffic and sweep observations
//     (serve's shadow path), accumulating verdict-flip counts.
//   - A promotion controller watches the candidate's flip rate and,
//     once enough assessments accumulate, promotes it through the
//     deployment's hot-reload path — or demotes it on regression.
//
// Every completed domain is journaled through internal/checkpoint, so a
// killed daemon resumes its sweep exactly where it stopped: the journal
// a resumed sweep finishes is byte-identical to an uninterrupted one.
package reverify

import (
	"context"
	"log"
	"time"

	"pharmaverify/internal/checkpoint"
	"pharmaverify/internal/core"
	"pharmaverify/internal/serve"
)

// Deployment is the serving surface the pipeline drives. *serve.Server
// satisfies it directly; tests substitute fakes.
type Deployment interface {
	// Reverify runs the full serving pipeline for one corpus domain,
	// bypassing admission control, and refreshes the verdict cache.
	Reverify(ctx context.Context, domain string) (serve.Observation, error)
	// Corpus is the known-domain universe to sweep, sorted.
	Corpus() []string
	// TrainingSketch is the live model's train-time distribution
	// snapshot (nil for models that predate sketches — drift monitoring
	// is then unavailable).
	TrainingSketch() *core.Sketch
	ShadowActive() bool
	// ShadowStats is the current candidate's record: fresh verdicts it
	// double-assessed and how many it flipped.
	ShadowStats() (assessed, flips uint64)
	PromoteShadow() (string, error)
	DemoteShadow()
	ModelFingerprint() string
}

// DriftConfig tunes the drift monitor's retrain trigger.
type DriftConfig struct {
	// RetrainThreshold fires the retrain trigger when either drift score
	// (term or link total-variation distance from the training sketch)
	// reaches it. Negative disables the trigger; 0 fires on every sweep
	// once MinObservations is met (useful to force the retrain path in
	// smoke tests). Not re-defaulted: 0 means 0.
	RetrainThreshold float64
	// MinObservations is how many successfully re-verified domains the
	// streaming counters must hold before the scores are trusted enough
	// to trigger (default 25).
	MinObservations int
}

// PromotionConfig is the shadow promotion gate.
type PromotionConfig struct {
	// MinAssessments is how many fresh verdicts the candidate must
	// double-assess before the gate is evaluated (default 16).
	MinAssessments uint64
	// MaxFlipRate is the highest flips/assessed ratio that still
	// promotes (default 0.1; negative means only a flawless candidate
	// promotes).
	MaxFlipRate float64
	// Auto enables the controller: promote at or under the gate, demote
	// over it. Off, the pipeline only measures and operators act.
	Auto bool
}

// Config configures a Pipeline.
type Config struct {
	// Checkpoint journals sweep progress for exact resume (nil: sweeps
	// restart from scratch after a crash).
	Checkpoint *checkpoint.Store
	// Interval is the per-domain politeness bound: a domain re-verified
	// more recently than this is skipped for the sweep (0 disables).
	// Tracked in memory only — a restarted daemon may re-verify sooner,
	// never later, which errs on the fresh side.
	Interval time.Duration
	// Rate is the global crawl budget in re-verifications per second
	// across the whole sweep (<= 0: unpaced).
	Rate float64
	// MaxSweeps stops Run after this many completed sweeps (0: run until
	// the context ends). Tests and smoke jobs bound their runs with it.
	MaxSweeps int
	// Drift tunes the retrain trigger; Promotion the shadow gate.
	Drift     DriftConfig
	Promotion PromotionConfig
	// Retrain is invoked (synchronously, at most once per sweep) when
	// the drift trigger fires and no shadow is active. The daemon's
	// retrain loads the candidate model file and arms the shadow; nil
	// disables the trigger.
	Retrain func(ctx context.Context) error
	// Logf receives progress lines (default log.Printf).
	Logf func(format string, args ...any)

	// now/sleep are the injectable clock and pacer (tests).
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.Interval < 0 {
		c.Interval = 0
	}
	if c.Drift.MinObservations <= 0 {
		c.Drift.MinObservations = 25
	}
	if c.Promotion.MinAssessments == 0 {
		c.Promotion.MinAssessments = 16
	}
	if c.Promotion.MaxFlipRate == 0 {
		c.Promotion.MaxFlipRate = 0.1
	}
	if c.Promotion.MaxFlipRate < 0 {
		c.Promotion.MaxFlipRate = 0
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.sleep == nil {
		c.sleep = ctxSleep
	}
	return c
}

func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Journal layout. The per-domain payload carries only the sweep number
// — deliberately no timestamps, verdicts or scores — so the journal a
// resumed sweep finishes is byte-identical to an uninterrupted run's
// (verdicts may differ across a restart because the live link graph
// rebuilds; the journal must not).
const (
	kindDomain = "reverify"
	kindMeta   = "reverify-meta"
	metaKey    = "sweep"
)

type sweepRecord struct {
	Sweep uint64 `json:"sweep"`
}

// Pipeline is the continuous re-verification loop. Construct with New,
// then Run on a background goroutine; mount Metrics on the deployment's
// /metrics endpoint.
type Pipeline struct {
	dep   Deployment
	cfg   Config
	drift *driftMonitor
	met   pipelineMetrics
	// lastVerified is the in-memory politeness ledger (per-domain time
	// of the most recent re-verification attempt). Only Run's goroutine
	// touches it.
	lastVerified map[string]time.Time
}

// New builds a Pipeline over a deployment. The drift baseline is the
// live model's training sketch at construction time; every promotion
// re-baselines to the promoted model's sketch.
func New(dep Deployment, cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		dep:          dep,
		cfg:          cfg,
		drift:        newDriftMonitor(dep.TrainingSketch()),
		lastVerified: make(map[string]time.Time),
	}
	p.declareMetrics()
	return p
}

// Run executes sweeps until the context ends (or MaxSweeps completes).
// It is the pipeline's only goroutine: scheduling, drift scoring,
// retrain triggering and the promotion gate all run here, serialized.
// The returned error is the context's when interrupted, or a journal
// I/O failure; a re-verification failure of an individual domain is
// counted and logged, never fatal.
func (p *Pipeline) Run(ctx context.Context) error {
	sweep, err := p.loadSweep()
	if err != nil {
		return err
	}
	for done := 0; ; {
		if err := p.runSweep(ctx, sweep); err != nil {
			return err
		}
		p.met.sweeps.Inc()
		sweep++
		if err := p.storeSweep(sweep); err != nil {
			return err
		}
		p.maybeRetrain(ctx)
		done++
		if p.cfg.MaxSweeps > 0 && done >= p.cfg.MaxSweeps {
			return nil
		}
		if wait := p.nextDue(); wait > 0 {
			if err := p.cfg.sleep(ctx, wait); err != nil {
				return err
			}
		}
	}
}

// runSweep re-verifies every corpus domain not already journaled as
// done for this sweep, oldest verdict first.
func (p *Pipeline) runSweep(ctx context.Context, sweep uint64) error {
	q := newDomainQueue(p.dep.Corpus(), p.lastVerified)
	for q.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		d := q.pop()
		if p.cfg.Checkpoint != nil {
			var rec sweepRecord
			ok, err := p.cfg.Checkpoint.GetJSON(kindDomain, d, &rec)
			if err != nil {
				return err
			}
			if ok && rec.Sweep >= sweep {
				continue // finished before the restart — resume past it
			}
		}
		crawled := p.processDomain(ctx, d)
		// Journal the step before moving on — regardless of the assess
		// outcome, so a crash right here re-verifies at most this one
		// domain twice and the journal's shape stays a pure function of
		// (corpus, sweep number).
		if p.cfg.Checkpoint != nil {
			if err := p.cfg.Checkpoint.PutJSON(kindDomain, d, sweepRecord{Sweep: sweep}); err != nil {
				return err
			}
		}
		p.maybePromote()
		if crawled && p.cfg.Rate > 0 {
			pause := time.Duration(float64(time.Second) / p.cfg.Rate)
			if err := p.cfg.sleep(ctx, pause); err != nil {
				return err
			}
		}
	}
	return nil
}

// processDomain re-verifies one domain (unless politeness skips it) and
// feeds the drift monitor. It reports whether a crawl actually ran —
// the unit the global rate budget paces.
func (p *Pipeline) processDomain(ctx context.Context, domain string) bool {
	now := p.cfg.now()
	if p.cfg.Interval > 0 {
		if last, ok := p.lastVerified[domain]; ok && now.Sub(last) < p.cfg.Interval {
			p.met.domainsSkipped.Inc()
			return false
		}
	}
	obs, err := p.dep.Reverify(ctx, domain)
	p.lastVerified[domain] = now
	if err != nil {
		p.met.domainsErr.Inc()
		p.cfg.Logf("reverify: %s: %v", domain, err)
		return true
	}
	p.met.domainsOK.Inc()
	p.drift.observe(obs.Terms, obs.Outbound)
	return true
}

// maybeRetrain fires the drift trigger at a sweep boundary: enough
// observations, a drift score at or past the threshold, no candidate
// already shadowing. Retrain failures are logged and retried next
// sweep.
func (p *Pipeline) maybeRetrain(ctx context.Context) {
	th := p.cfg.Drift.RetrainThreshold
	if th < 0 || p.cfg.Retrain == nil || p.dep.ShadowActive() {
		return
	}
	term, link, n, ok := p.drift.scores()
	if !ok || n < p.cfg.Drift.MinObservations {
		return
	}
	if term < th && link < th {
		return
	}
	p.met.retrainTriggers.Inc()
	p.cfg.Logf("reverify: drift trigger fired (term %.3f, link %.3f over %d observations, threshold %.3f)",
		term, link, n, th)
	if err := p.cfg.Retrain(ctx); err != nil {
		p.cfg.Logf("reverify: retrain failed: %v", err)
	}
}

// maybePromote evaluates the shadow promotion gate: once the candidate
// has double-assessed enough fresh verdicts, a flip rate at or under
// the gate promotes it through the deployment's hot-reload path and
// re-baselines the drift monitor on the promoted model's sketch; a flip
// rate over the gate demotes it (the regression path).
func (p *Pipeline) maybePromote() {
	if !p.cfg.Promotion.Auto || !p.dep.ShadowActive() {
		return
	}
	assessed, flips := p.dep.ShadowStats()
	if assessed < p.cfg.Promotion.MinAssessments {
		return
	}
	rate := float64(flips) / float64(assessed)
	if rate <= p.cfg.Promotion.MaxFlipRate {
		fp, err := p.dep.PromoteShadow()
		if err != nil {
			p.cfg.Logf("reverify: promotion failed: %v", err)
			return
		}
		p.cfg.Logf("reverify: promoted shadow %s (flip rate %.3f over %d assessments)", fp, rate, assessed)
		p.drift.reset(p.dep.TrainingSketch())
		return
	}
	p.dep.DemoteShadow()
	p.cfg.Logf("reverify: demoted shadow (flip rate %.3f over %d assessments exceeds %.3f)",
		rate, assessed, p.cfg.Promotion.MaxFlipRate)
}

// nextDue computes how long until the earliest corpus domain leaves its
// politeness interval — the inter-sweep pause. Without politeness (or
// with an empty corpus) sweeps run back to back only when something is
// due; an empty corpus waits a full interval (floored at a second) so
// the loop never spins hot.
func (p *Pipeline) nextDue() time.Duration {
	if p.cfg.Interval <= 0 {
		return 0
	}
	corpus := p.dep.Corpus()
	if len(corpus) == 0 {
		return p.cfg.Interval
	}
	now := p.cfg.now()
	var soonest time.Duration = -1
	for _, d := range corpus {
		last, ok := p.lastVerified[d]
		if !ok {
			return 0 // a never-verified domain is due immediately
		}
		wait := p.cfg.Interval - now.Sub(last)
		if wait <= 0 {
			return 0
		}
		if soonest < 0 || wait < soonest {
			soonest = wait
		}
	}
	return soonest
}

// loadSweep reads the sweep counter from the journal (1 when absent or
// unjournaled).
func (p *Pipeline) loadSweep() (uint64, error) {
	if p.cfg.Checkpoint == nil {
		return 1, nil
	}
	var rec sweepRecord
	ok, err := p.cfg.Checkpoint.GetJSON(kindMeta, metaKey, &rec)
	if err != nil {
		return 0, err
	}
	if !ok || rec.Sweep == 0 {
		return 1, nil
	}
	return rec.Sweep, nil
}

func (p *Pipeline) storeSweep(sweep uint64) error {
	if p.cfg.Checkpoint == nil {
		return nil
	}
	return p.cfg.Checkpoint.PutJSON(kindMeta, metaKey, sweepRecord{Sweep: sweep})
}
