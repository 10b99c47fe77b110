package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"pharmaverify/internal/crawler"
	"pharmaverify/internal/serve"
)

// serve-hot: 64-domain ranked /v1/verify batches over a hot set of
// Dataset-1 domains that fits the default verdict cache, every verdict
// cached at warm-up, sent by one closed-loop client. Nothing is crawled
// and TrustRank never runs: the operation is the request path alone.
const (
	hotSetSize = 512 // half the default CacheSize of 1024
	hotBatch   = 64  // the default MaxBatch
	hotZipfS   = 1.1 // popularity exponent over the hot set
	// hotBodies is how many distinct batches the client cycles through.
	hotBodies = 256
)

type hotBatchReq struct {
	domains []string
	body    []byte
	// reply is the reply to body as checked in full at warm-up. Every
	// verdict is cached, so a correct server answers the same body with
	// the same bytes; later replies are compared with it.
	reply []byte
}

type hotEnv struct {
	h      http.Handler
	fetch  *timedFetcher
	stored map[string]serve.DomainVerdict
}

// hotBatches draws the client's batches: 64 distinct hot domains per
// batch, by Zipf popularity over the hot set.
func hotBatches(hot []string, seed int64) []hotBatchReq {
	z := rand.NewZipf(rand.New(rand.NewSource(seed*1009)), hotZipfS, 1, uint64(len(hot)-1))
	out := make([]hotBatchReq, 0, hotBodies)
	for b := 0; b < hotBodies; b++ {
		seen := make(map[uint64]bool, hotBatch)
		domains := make([]string, 0, hotBatch)
		for len(domains) < hotBatch {
			k := z.Uint64()
			if !seen[k] {
				seen[k] = true
				domains = append(domains, hot[k])
			}
		}
		out = append(out, hotBatchReq{domains: domains, body: verifyBody(serve.VerifyRequest{Domains: domains})})
	}
	return out
}

// checkHotRaw decodes a serve-hot reply and checks it in full.
func checkHotRaw(code int, raw []byte, domains []string, stored map[string]serve.DomainVerdict) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, raw)
	}
	var resp serve.VerifyResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	return checkHotReply(domains, resp, stored)
}

func runServeHot(cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg)
	tr := newTracer(cfg.trace)
	var batches []hotBatchReq
	env, stages, err := repeatSetup(o, func(st *stageTimes) (*hotEnv, error) {
		tw, err := buildTrainedWorld(st)
		if err != nil {
			return nil, err
		}
		hot := seededShuffle(tw.world.Domains(), rand.New(rand.NewSource(cfg.seed)))[:hotSetSize]
		f := &timedFetcher{inner: tw.world}
		srv, err := newServer(tw.model, f)
		if err != nil {
			return nil, err
		}
		e := &hotEnv{h: srv.Handler(), fetch: f, stored: map[string]serve.DomainVerdict{}}
		// Warm-up: every hot domain is verified once, cold, and its
		// verdict kept as the reference for the timed phase.
		for i := 0; i < len(hot); i += hotBatch {
			resp, err := verify(e.h, verifyBody(serve.VerifyRequest{Domains: hot[i : i+hotBatch]}))
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			for _, v := range resp.Results {
				if err := checkVerdictRule(v); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
				e.stored[v.Domain] = v
			}
		}
		// Then every batch is sent once and its reply checked in full,
		// which also warms the request path.
		batches = hotBatches(hot, cfg.seed)
		for i := range batches {
			code, raw := post(e.h, batches[i].body)
			if err := checkHotRaw(code, raw.Bytes(), batches[i].domains, e.stored); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			batches[i].reply = raw.Bytes()
		}
		// Nothing is crawled from here on. The simulated web is released
		// so the timed phase's heap and GC work are the server's own; a
		// crawl would now fail and show as a failed check.
		f.inner = crawler.FetcherFunc(func(domain, _ string) (string, error) {
			return "", fmt.Errorf("serve-hot crawled %s after warm-up", domain)
		})
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	stageLayers(o, stages)
	env.fetch.tr = tr

	var before scrape
	fetched := env.fetch.total()
	if cfg.trace {
		if before, err = scrapeHandler(env.h); err != nil {
			return nil, err
		}
	}
	o.lat = make([]time.Duration, 0, 1<<17) // sized so timing never grows it
	o.ph = startPhase(o.speed)
	// A round is one pass over the client's batches.
	deadline := time.Now().Add(cfg.seconds)
	var round roundTimer
	for i := 0; i%hotBodies != 0 || time.Now().Before(deadline); i++ {
		if i%hotBodies == 0 {
			if i > 0 {
				o.endRound(round)
			}
			round = o.startRound(o.attempted)
		}
		b := batches[i%hotBodies]
		t0 := time.Now()
		code, raw := post(env.h, b.body)
		t1 := time.Now()
		tr.record("serve.verify", 0, t0, t1)
		o.attempted++
		if code != http.StatusOK {
			o.failed++
			o.problem("serve-hot: status %d: %s", code, raw.String())
			continue
		}
		o.lat = append(o.lat, t1.Sub(t0))
		if !bytes.Equal(raw.Bytes(), b.reply) {
			// Say what is wrong with it, not only that it changed.
			err := checkHotRaw(code, raw.Bytes(), b.domains, env.stored)
			if err == nil {
				err = fmt.Errorf("reply to a batch differs from its warm-up reply")
			}
			o.problem("serve-hot: %v", err)
		}
	}
	o.endRound(round)
	o.ph.stop()
	o.note("serve-hot: %d batches of %d domains from a hot set of %d (Zipf s=%g), one closed-loop client, every reply compared with its reply checked in full at warm-up",
		o.attempted, hotBatch, hotSetSize, hotZipfS)

	if cfg.trace {
		after, err := scrapeHandler(env.h)
		if err != nil {
			return nil, err
		}
		ops := float64(o.attempted)
		d := scrape{}
		d.add(before, after)
		selves := servingLayers(o, d, after, ops, ms(env.fetch.total()-fetched)/ops, -1)
		reconcile(o, selves, ms(summarize(o.lat).total)/ops)
		path, err := tr.write(cfg.out, "serve-hot", cfg.seed)
		if err != nil {
			return nil, err
		}
		o.note("trace: %d spans written to %s (%d dropped)", len(tr.spans), path, tr.dropped)
	}
	return o, nil
}
