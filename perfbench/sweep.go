package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"pharmaverify/internal/reverify"
	"pharmaverify/internal/serve"
)

// reverify-sweep: reverify.Pipeline sweeps over the Dataset-1 corpus on
// a server whose corpus holds every Dataset-1 domain, after one warm-up
// sweep. The drift monitor is on and no retrain hook is set. The
// operation is one domain re-verified; its latency is the time since
// the sweep's previous domain completed, so a sweep's operations add up
// to the sweep.
type sweepEnv struct {
	srv    *serve.Server
	dep    *timedDeployment
	pipe   *reverify.Pipeline
	fetch  *timedFetcher
	corpus []string
	logs   *bytes.Buffer
	// warm holds the warm-up sweep's verdicts, the reference for every
	// timed sweep.
	warm map[string]serve.DomainVerdict
}

// sweep runs one sweep of the pipeline, recording it on the deployment.
func (e *sweepEnv) sweep() error {
	e.dep.startSweep(time.Now())
	return e.pipe.Run(context.Background())
}

func runReverifySweep(cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg)
	tr := newTracer(cfg.trace)
	env, stages, err := repeatSetup(o, func(st *stageTimes) (*sweepEnv, error) {
		tw, err := buildTrainedWorld(st)
		if err != nil {
			return nil, err
		}
		f := &timedFetcher{inner: tw.world}
		srv, err := newServer(tw.model, f)
		if err != nil {
			return nil, err
		}
		srv.AddCorpusDomains(tw.world.Domains())
		e := &sweepEnv{srv: srv, fetch: f, corpus: srv.Corpus(), logs: &bytes.Buffer{}}
		e.dep = &timedDeployment{Deployment: srv}
		e.pipe = reverify.New(e.dep, reverify.Config{
			MaxSweeps: 1,
			Logf:      func(format string, args ...any) { fmt.Fprintf(e.logs, format+"\n", args...) },
		})
		if err := e.sweep(); err != nil {
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		if err := checkSweep(e.corpus, e.dep.seen, e.dep.errs); err != nil {
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		e.warm = e.dep.verdicts
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	stageLayers(o, stages)
	env.fetch.tr = tr
	env.dep.tr = tr
	env.dep.lat = make([]time.Duration, 0, 1<<15)
	env.dep.inside = 0
	env.dep.pages = 0

	var before scrape
	if cfg.trace {
		if before, err = scrapeHandler(env.srv.Handler()); err != nil {
			return nil, err
		}
	}
	fetched := env.fetch.total()
	o.ph = startPhase(o.speed)
	start := time.Now()
	for len(o.rounds) == 0 || time.Since(start) < cfg.seconds {
		round := o.startRound(len(env.dep.lat))
		if err := env.sweep(); err != nil {
			return nil, err
		}
		o.attempted = len(env.dep.lat)
		o.endRound(round)
		sweeps := len(o.rounds)
		if err := checkSweep(env.corpus, env.dep.seen, env.dep.errs); err != nil {
			o.problem("reverify-sweep: sweep %d: %v", sweeps, err)
		}
		for d, v := range env.dep.verdicts {
			if err := sameVerdict(v, env.warm[d]); err != nil {
				o.problem("reverify-sweep: sweep %d: %v", sweeps, err)
				break
			}
		}
	}
	o.ph.stop()
	sweeps := len(o.rounds)
	o.lat = env.dep.lat
	o.attempted = len(o.lat)
	o.failed = env.dep.errs

	// The drift monitor folds every successful re-verification, warm-up
	// sweep included.
	var m bytes.Buffer
	env.pipe.WriteMetrics(&m)
	pm, err := parseExposition(&m)
	if err != nil {
		return nil, err
	}
	reverified := (sweeps + 1) * len(env.corpus)
	if got := pm["pharmaverify_drift_observations"]; int(got) != reverified {
		o.problem("reverify-sweep: drift monitor holds %v observations, %d domains were re-verified", got, reverified)
	}
	if env.logs.Len() > 0 {
		o.problem("reverify-sweep: pipeline logged %q", env.logs.String())
	}
	o.note("reverify-sweep: %d timed sweeps over a corpus of %d domains after one warm-up sweep; every sweep complete, verdicts equal to the warm-up sweep's, drift observations %v",
		sweeps, len(env.corpus), pm["pharmaverify_drift_observations"])

	if cfg.trace {
		after, err := scrapeHandler(env.srv.Handler())
		if err != nil {
			return nil, err
		}
		ops := float64(o.attempted)
		d := scrape{}
		d.add(before, after)
		inside := ms(env.dep.inside) / ops
		o.layers["reverify.reverify_ms"] = inside
		opMs := ms(summarize(o.lat).total) / ops
		o.layers["reverify.scheduler_ms"] = opMs - inside
		o.layers["crawler.pages"] = float64(env.dep.pages) / ops
		selves := servingLayers(o, d, after, ops, ms(env.fetch.total()-fetched)/ops, inside)
		selves = append(selves, opMs-inside)
		reconcile(o, selves, ms(o.ph.wall())/ops)
		path, err := tr.write(cfg.out, "reverify-sweep", cfg.seed)
		if err != nil {
			return nil, err
		}
		o.note("trace: %d spans written to %s (%d dropped)", len(tr.spans), path, tr.dropped)
	}
	return o, nil
}
