package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pharmaverify/internal/core"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/eval"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/serve"
	"pharmaverify/internal/textproc"
	"pharmaverify/internal/trust"
	"pharmaverify/internal/webgen"
)

// serve-cold: single-domain /v1/verify requests, one closed-loop client,
// over a Dataset-2-shaped world: the 167 legitimate domains the model
// was trained on and 1275 illegitimate ones it has never seen. A round
// is a fresh server answering the first coldRound domains of the seeded
// order, so every round replays the same growth of the live link graph.
const (
	coldRound = 320
	// coldSample is how many served verdicts are recomputed apart from
	// the serving path after the timed phase.
	coldSample = 8
)

type coldEnv struct {
	model *core.Verifier
	world *webgen.World
	fetch *timedFetcher
	order []string
}

// coldOrder draws the request order: each class shuffled by the seed,
// then interleaved at the world's class ratio, so every seed serves the
// same mix in every prefix.
func coldOrder(w *webgen.World, seed int64) []string {
	labels := w.Labels()
	var legit, illegit []string
	for _, d := range w.Domains() {
		if labels[d] == ml.Legitimate {
			legit = append(legit, d)
		} else {
			illegit = append(illegit, d)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	legit, illegit = seededShuffle(legit, rng), seededShuffle(illegit, rng)
	nl, n := len(legit), len(legit)+len(illegit)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if (i+1)*nl/n > i*nl/n {
			out = append(out, legit[0])
			legit = legit[1:]
		} else {
			out = append(out, illegit[0])
			illegit = illegit[1:]
		}
	}
	return out
}

func runServeCold(cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg)
	tr := newTracer(cfg.trace)
	env, stages, err := repeatSetup(o, func(st *stageTimes) (*coldEnv, error) {
		tw, err := buildTrainedWorld(st)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		w2 := webgen.Generate(webgen.Dataset2Config(worldSeed))
		st.generate += time.Since(t0)
		f := &timedFetcher{inner: w2}
		// The server a round starts with; setup ends once it is up.
		if _, err := newServer(tw.model, f); err != nil {
			return nil, err
		}
		return &coldEnv{model: tw.model, world: w2, fetch: f, order: coldOrder(w2, cfg.seed)[:coldRound]}, nil
	})
	if err != nil {
		return nil, err
	}
	stageLayers(o, stages)
	env.fetch.tr = tr
	bodies := make([][]byte, len(env.order))
	for i, d := range env.order {
		bodies[i] = verifyBody(serve.VerifyRequest{Domain: d})
	}

	var (
		deltas   = scrape{}
		end      scrape
		verdicts []serve.DomainVerdict // the last round's, in order
		first    time.Duration         // latency over the first and last tenth of the rounds
		last     time.Duration
	)
	fetched := env.fetch.total()
	o.ph = startPhase(o.speed)
	start := time.Now()
	for len(o.rounds) == 0 || time.Since(start) < cfg.seconds {
		round := o.startRound(o.attempted)
		srv, err := newServer(env.model, env.fetch)
		if err != nil {
			return nil, err
		}
		h := srv.Handler()
		var before scrape
		if cfg.trace {
			if before, err = scrapeHandler(h); err != nil {
				return nil, err
			}
		}
		verdicts = verdicts[:0]
		for i, body := range bodies {
			id := tr.begin()
			t0 := time.Now()
			resp, err := verify(h, body)
			t1 := time.Now()
			tr.finish(id, "serve.verify", t0, t1)
			o.attempted++
			if err != nil {
				o.failed++
				o.problem("serve-cold: %s: %v", env.order[i], err)
				verdicts = append(verdicts, serve.DomainVerdict{})
				continue
			}
			d := t1.Sub(t0)
			o.lat = append(o.lat, d)
			if i < len(bodies)/10 {
				first += d
			} else if i >= len(bodies)-len(bodies)/10 {
				last += d
			}
			v := resp.Results[0]
			if err := checkVerdictRule(v); err != nil {
				o.problem("serve-cold: %v", err)
			}
			if v.Cached {
				o.problem("serve-cold: %s served from the cache of a fresh server", v.Domain)
			}
			verdicts = append(verdicts, v)
			// A round takes seconds, so the machine is probed between
			// requests too, to sample it as evenly as the other
			// workloads do between their shorter rounds.
			o.speed.between()
		}
		if cfg.trace {
			after, err := scrapeHandler(h)
			if err != nil {
				return nil, err
			}
			deltas.add(before, after)
			end = after
		}
		srv.Close()
		o.endRound(round)
	}
	o.ph.stop()
	rounds := len(o.rounds)
	tenth := time.Duration(rounds * (len(bodies) / 10))
	o.note("serve-cold: %d rounds of %d single-domain requests, each on a fresh server; mean latency %.3f ms over the first tenth of a round, %.3f ms over the last",
		rounds, len(bodies), ms(first/tenth), ms(last/tenth))

	coldQuality(o, env, verdicts)
	if err := coldRecompute(o, env, verdicts, cfg.seed); err != nil {
		return nil, err
	}

	if cfg.trace {
		ops := float64(o.attempted)
		pages := 0
		for _, v := range verdicts {
			pages += v.Pages
		}
		o.layers["crawler.pages"] = float64(pages) / float64(len(verdicts))
		selves := servingLayers(o, deltas, end, ops, ms(env.fetch.total()-fetched)/ops, -1)
		reconcile(o, selves, ms(summarize(o.lat).total)/ops)
		path, err := tr.write(cfg.out, "serve-cold", cfg.seed)
		if err != nil {
			return nil, err
		}
		o.note("trace: %d spans written to %s (%d dropped)", len(tr.spans), path, tr.dropped)
	}
	return o, nil
}

// coldQuality reports accuracy and OPR pairwise orderedness of the last
// round's verdicts against the generator's labels; accuracy must beat
// the majority-class rate.
func coldQuality(o *outcome, env *coldEnv, verdicts []serve.DomainVerdict) {
	labels := env.world.Labels()
	var correct, legit int
	ranks := make([]float64, len(verdicts))
	ys := make([]int, len(verdicts))
	for i, v := range verdicts {
		y := labels[env.order[i]]
		ys[i], ranks[i] = y, v.Rank
		if y == ml.Legitimate {
			legit++
		}
		if v.Legitimate == (y == ml.Legitimate) {
			correct++
		}
	}
	n := float64(len(verdicts))
	acc := float64(correct) / n
	majority := float64(max(legit, len(verdicts)-legit)) / n
	o.note("serve-cold quality: accuracy %.4f against a majority-class rate of %.4f, OPR pairwise orderedness %.4f over %d domains",
		acc, majority, eval.PairwiseOrderedness(ranks, ys), len(verdicts))
	if acc <= majority {
		o.problem("serve-cold: accuracy %.4f does not beat the majority-class rate %.4f", acc, majority)
	}
}

// coldRecompute recomputes a seeded sample of the last round's verdicts
// apart from the serving path. TextProb must equal the model's text
// probability over the benchmark's own crawl and preprocessing under
// the serving crawl budget. TrustScore, for a domain the server had
// never seen before it was asked (not trained on, not yet linked to),
// must equal TrustRank over the training links plus the links of every
// domain served up to and including it.
func coldRecompute(o *outcome, env *coldEnv, verdicts []serve.DomainVerdict, seed int64) error {
	pre := textproc.NewPreprocessor()
	train := env.model.TrainingOutbound()
	known := map[string]bool{}
	for d, eps := range train {
		known[d] = true
		for _, ep := range eps {
			known[ep] = true
		}
	}
	// Crawl the round's domains in order, noting which ones were new to
	// the server when they were asked for.
	terms := make([][]string, len(env.order))
	links := make([][]string, len(env.order))
	var fresh []int
	for i, d := range env.order {
		r := crawler.CrawlCtx(context.Background(), env.world, d, servingCrawl)
		terms[i] = pre.Terms(textproc.Summarize(r.Text()))
		links[i] = liveEndpoints(d, trust.OutboundEndpoints(r.External, d))
		if !known[d] {
			fresh = append(fresh, i)
		}
		known[d] = true
		for _, ep := range links[i] {
			known[ep] = true
		}
	}
	rng := rand.New(rand.NewSource(seed + 7))
	checked := 0
	for _, k := range rng.Perm(len(fresh)) {
		if checked == coldSample {
			break
		}
		i := fresh[k]
		v := verdicts[i]
		if v.Domain == "" {
			continue
		}
		checked++
		if got := env.model.TextProb(terms[i]); got != v.TextProb {
			o.problem("serve-cold: %s: served textProb %v, recomputed %v", v.Domain, v.TextProb, got)
		}
		merged := make(map[string][]string, len(train)+i+1)
		for d, eps := range train {
			merged[d] = eps
		}
		for j := 0; j <= i; j++ {
			merged[env.order[j]] = links[j]
		}
		g := trust.BuildGraph(merged)
		opts := env.model.Options().Network
		if opts.Variant != core.TrustRankDirected {
			g = g.Undirected()
		}
		scores := trust.TrustRank(g, env.model.Seeds(), opts.Trust)
		id := g.ID(v.Domain)
		if id < 0 {
			return fmt.Errorf("recompute: %s missing from its own graph", v.Domain)
		}
		if scores[id] != v.TrustScore {
			o.problem("serve-cold: %s: served trustScore %v, recomputed %v", v.Domain, v.TrustScore, scores[id])
		}
	}
	o.note("serve-cold: recomputed textProb and trustScore of %d sampled first-seen domains apart from the serving path", checked)
	if checked == 0 {
		o.problem("serve-cold: no verdict could be recomputed")
	}
	return nil
}

// liveEndpoints keeps a crawl's outbound endpoints the way the live
// link graph documents it: self links and repeats dropped, at most the
// serving default of 200 per domain, in crawl order.
func liveEndpoints(domain string, eps []string) []string {
	const maxOut = 200
	seen := map[string]bool{}
	var kept []string
	for _, ep := range eps {
		if ep == domain || seen[ep] || len(kept) == maxOut {
			continue
		}
		seen[ep] = true
		kept = append(kept, ep)
	}
	return kept
}
