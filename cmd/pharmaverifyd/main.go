// Command pharmaverifyd is the online verification daemon: it loads a
// trained model (from `pharmaverify train`) and serves on-demand
// pharmacy verification over HTTP — crawl the domain, preprocess,
// classify and rank while the caller waits.
//
// Endpoints:
//
//	POST /v1/verify   verify one domain or a batch (JSON body)
//	GET  /healthz     liveness + build info
//	GET  /readyz      readiness + served model fingerprint
//	GET  /metrics     Prometheus text exposition
//
// With -pprof-addr set, the net/http/pprof handlers are additionally
// served on that (separate) listener; profiling is off by default.
//
// With -reverify set, a background continuous-verification pipeline
// (internal/reverify) sweeps the known-domain corpus through the same
// serving pipeline — without taking admission slots from live traffic —
// scores vocabulary and link drift against the model's training sketch,
// and past -drift-retrain-threshold arms the -shadow-model candidate to
// double-assess traffic; -shadow-auto-promote then hot-swaps it in once
// its verdict-flip rate clears the gate. Sweep progress journals to
// -reverify-checkpoint for exact crash resume.
//
// Signals:
//
//	SIGHUP            hot-reload the model file (atomic swap; in-flight
//	                  requests finish on the model they started with)
//	SIGINT, SIGTERM   graceful shutdown: stop admitting, drain in-flight
//	                  requests, exit 0
//
// Example session against a synthetic world:
//
//	pharmaverify generate -seed 7 -legit 12 -illegit 36 -out world.json
//	pharmaverify train -in world.json -out model.json
//	pharmaverifyd -model model.json -world-seed 7 -world-legit 12 -world-illegit 36 &
//	curl -s -d '{"domain":"some-pharmacy.com"}' localhost:8080/v1/verify
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pharmaverify/internal/buildinfo"
	"pharmaverify/internal/checkpoint"
	"pharmaverify/internal/core"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/parallel"
	"pharmaverify/internal/reverify"
	"pharmaverify/internal/serve"
	"pharmaverify/internal/webgen"
)

// reverifyOpts carries the continuous-verification flags into run.
type reverifyOpts struct {
	enabled        bool
	corpusFile     string
	checkpointDir  string
	interval       time.Duration
	rate           float64
	threshold      float64
	minObs         int
	shadowModel    string
	shadowDeferred bool
	minAssess      uint64
	maxFlipRate    float64
	autoPromote    bool
}

func main() {
	var (
		modelPath = flag.String("model", "", "trained model file (required; from `pharmaverify train`). SIGHUP re-reads it.")
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers   = flag.Int("workers", 0, "concurrently served requests (0 = PHARMAVERIFY_WORKERS, then GOMAXPROCS)")
		batchWrk  = flag.Int("batch-workers", 4, "per-request fan-out of a batch's domains (crawl concurrency <= workers * batch-workers)")
		queue     = flag.Int("queue", 64, "requests allowed to wait for a worker before shedding with 429")
		cacheSize = flag.Int("cache", 1024, "verdict cache entries")
		cacheTTL  = flag.Duration("cache-ttl", 15*time.Minute, "verdict freshness window")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-request deadline; client-requested timeouts are capped at twice this")
		drain     = flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight requests")

		crawlPages    = flag.Int("crawl-pages", 50, "page cap of one on-demand crawl")
		crawlAttempts = flag.Int("crawl-attempts", 150, "total fetch-attempt budget of one on-demand crawl (0 = unbounded)")
		crawlRetries  = flag.Int("crawl-retries", 2, "fetch attempts per page")
		crawlTimeout  = flag.Duration("crawl-fetch-timeout", 5*time.Second, "timeout of one fetch attempt")
		crawlDelay    = flag.Duration("crawl-delay", 0, "politeness delay before every fetch (set ~200ms for live crawls)")
		crawlBreaker  = flag.Int("crawl-failure-budget", 20, "consecutive lost pages before abandoning a domain (0 = off)")

		graphMaxNodes   = flag.Int("graph-max-nodes", 100_000, "live link-graph node bound beyond the model's training graph")
		graphMaxOut     = flag.Int("graph-max-out", 200, "outbound endpoints folded per crawl")
		graphDirty      = flag.Int("graph-refresh-dirty", 16, "graph-changing folds that trigger a TrustRank recompute (1 = every change)")
		graphRefresh    = flag.Duration("graph-refresh-interval", 30*time.Second, "background TrustRank refresh tick bounding score staleness (0 = request-driven only)")
		graphJitterSeed = flag.Int64("graph-jitter-seed", 0, "seed of the ±20% jitter on every refresh tick, desynchronizing fleet-wide refreshes (0 = derive from the clock)")
		registryFile    = flag.String("registry-file", "", "registry evidence backend: file of \"domain legitimate|illegitimate\" lines (empty = registry source abstains)")

		sourceTimeout   = flag.Duration("source-timeout", 2*time.Second, "per-evidence-source assessment deadline (negative = unbounded)")
		sourceConc      = flag.Int("source-concurrency", 8, "per-source bulkhead: concurrent assessments allowed per evidence source")
		breakerWindow   = flag.Int("breaker-window", 16, "rolling outcome window of each source's circuit breaker")
		breakerFailures = flag.Int("breaker-failures", 8, "failures within the window that open a source's breaker")
		breakerCooldown = flag.Duration("breaker-cooldown", 10*time.Second, "how long an open breaker fast-fails before half-open probing")
		breakerProbes   = flag.Int("breaker-probes", 2, "consecutive half-open probe successes that close a breaker")
		minEvidence     = flag.Int("min-evidence", 1, "evidence quorum: sources that must vote for a live verdict (below it, stale fallback)")
		maxStale        = flag.Duration("max-stale", time.Hour, "stale-serve budget: how far past its TTL an expired verdict may be served, marked, when live assessment fails (negative = never serve stale)")

		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty = profiling disabled")

		reverifyOn    = flag.Bool("reverify", false, "run the continuous re-verification pipeline in the background")
		revCorpus     = flag.String("reverify-corpus", "", "seed the sweep corpus from this file (one domain per line; the corpus also grows from served traffic)")
		revCheckpoint = flag.String("reverify-checkpoint", "", "journal sweep progress under this directory for exact crash resume (empty = restart sweeps from scratch)")
		revInterval   = flag.Duration("reverify-interval", time.Hour, "per-domain politeness bound between re-verifications (0 = none)")
		revRate       = flag.Float64("reverify-rate", 1, "global sweep crawl budget in re-verifications per second (<= 0 = unpaced)")
		driftThresh   = flag.Float64("drift-retrain-threshold", 0.35, "drift score (term or link total-variation distance from the training sketch) that triggers a retrain; negative disables, 0 fires every sweep")
		driftMinObs   = flag.Int("drift-min-observations", 25, "re-verified domains required before drift scores can trigger")
		shadowModel   = flag.String("shadow-model", "", "candidate model file to shadow-deploy: it double-assesses live traffic without affecting verdicts")
		shadowDefer   = flag.Bool("shadow-deferred", false, "do not arm -shadow-model at startup; the drift trigger loads and arms it when re-verification detects drift")
		shadowMinA    = flag.Uint64("shadow-min-assessments", 16, "double-assessed verdicts required before the promotion gate is evaluated")
		shadowMaxFlip = flag.Float64("shadow-max-flip-rate", 0.1, "highest shadow verdict-flip rate that still promotes")
		shadowAuto    = flag.Bool("shadow-auto-promote", true, "let the pipeline promote (or demote) the shadow through the hot-reload path; off = measure only")

		worldSeed    = flag.Int64("world-seed", 0, "serve against a synthetic webgen world with this seed instead of live HTTP (tests, smoke)")
		worldSnap    = flag.Int("world-snapshot", 1, "synthetic world crawl epoch")
		worldLegit   = flag.Int("world-legit", 167, "synthetic world legitimate site count")
		worldIllegit = flag.Int("world-illegit", 1292, "synthetic world illegitimate site count")

		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("pharmaverifyd"))
		return
	}
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "pharmaverifyd: -model is required")
		flag.Usage()
		os.Exit(2)
	}
	var registry serve.RegistryLookup
	if *registryFile != "" {
		reg, err := loadRegistry(*registryFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pharmaverifyd:", err)
			os.Exit(2)
		}
		logf("registry backend: %d domains from %s", reg.Len(), *registryFile)
		registry = reg
	}
	if err := run(*modelPath, *addr, serve.Config{
		Crawl: crawler.Config{
			MaxPages:      *crawlPages,
			AttemptBudget: *crawlAttempts,
			Retry:         crawler.RetryConfig{MaxAttempts: *crawlRetries},
			FetchTimeout:  *crawlTimeout,
			Delay:         *crawlDelay,
			FailureBudget: *crawlBreaker,
		},
		Workers:              *workers,
		BatchWorkers:         *batchWrk,
		QueueDepth:           *queue,
		CacheSize:            *cacheSize,
		CacheTTL:             *cacheTTL,
		DefaultTimeout:       *timeout,
		GraphMaxNodes:        *graphMaxNodes,
		GraphMaxOut:          *graphMaxOut,
		GraphDirtyThreshold:  *graphDirty,
		GraphRefreshInterval: *graphRefresh,
		JitterSeed:           *graphJitterSeed,
		Registry:             registry,
		SourceTimeout:        *sourceTimeout,
		SourceConcurrency:    *sourceConc,
		BreakerWindow:        *breakerWindow,
		BreakerFailures:      *breakerFailures,
		BreakerCooldown:      *breakerCooldown,
		BreakerProbes:        *breakerProbes,
		MinEvidence:          *minEvidence,
		MaxStale:             *maxStale,
	}, *worldSeed, *worldSnap, *worldLegit, *worldIllegit, *drain, *pprofAddr, reverifyOpts{
		enabled:        *reverifyOn,
		corpusFile:     *revCorpus,
		checkpointDir:  *revCheckpoint,
		interval:       *revInterval,
		rate:           *revRate,
		threshold:      *driftThresh,
		minObs:         *driftMinObs,
		shadowModel:    *shadowModel,
		shadowDeferred: *shadowDefer,
		minAssess:      *shadowMinA,
		maxFlipRate:    *shadowMaxFlip,
		autoPromote:    *shadowAuto,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "pharmaverifyd:", err)
		os.Exit(1)
	}
}

// servePprof exposes the net/http/pprof handlers on their own listener,
// never on the service mux: profiling stays opt-in (off unless
// -pprof-addr is set) and unreachable from the serving port.
func servePprof(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logf("pprof listening on %s (profiles at /debug/pprof/)", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			logf("pprof listener failed: %v", err)
		}
	}()
	return nil
}

func loadRegistry(path string) (*serve.StaticRegistry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load registry: %w", err)
	}
	defer f.Close()
	reg, err := serve.ParseRegistry(f)
	if err != nil {
		return nil, fmt.Errorf("load registry %s: %w", path, err)
	}
	return reg, nil
}

func loadModel(path string) (*core.Verifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadVerifier(f)
}

// loadCorpusFile reads one domain per line (blank lines and #-comments
// ignored).
func loadCorpusFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load corpus: %w", err)
	}
	var domains []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		domains = append(domains, line)
	}
	return domains, nil
}

// startReverify seeds the corpus, arms any non-deferred shadow model and
// launches the continuous-verification pipeline. The returned stop
// cancels the sweep loop and waits for it to exit.
func startReverify(srv *serve.Server, o reverifyOpts) (stop func(), err error) {
	if o.shadowModel != "" && !o.shadowDeferred {
		cand, err := loadModel(o.shadowModel)
		if err != nil {
			return nil, fmt.Errorf("load shadow model: %w", err)
		}
		if err := srv.SetShadow(cand); err != nil {
			return nil, fmt.Errorf("arm shadow model: %w", err)
		}
		logf("shadow model %.12s armed from %s", cand.Fingerprint(), o.shadowModel)
	}
	if !o.enabled {
		return func() {}, nil
	}

	var store *checkpoint.Store
	if o.checkpointDir != "" {
		store, err = checkpoint.Open(o.checkpointDir)
		if err != nil {
			return nil, fmt.Errorf("open reverify checkpoint: %w", err)
		}
	}
	if o.corpusFile != "" {
		domains, err := loadCorpusFile(o.corpusFile)
		if err != nil {
			return nil, err
		}
		logf("reverify corpus: %d domains admitted from %s", srv.AddCorpusDomains(domains), o.corpusFile)
	}

	cfg := reverify.Config{
		Checkpoint: store,
		Interval:   o.interval,
		Rate:       o.rate,
		Drift:      reverify.DriftConfig{RetrainThreshold: o.threshold, MinObservations: o.minObs},
		Promotion: reverify.PromotionConfig{
			MinAssessments: o.minAssess,
			MaxFlipRate:    o.maxFlipRate,
			Auto:           o.autoPromote,
		},
		Logf: logf,
	}
	if o.shadowModel != "" {
		// The retrain hook re-reads the candidate file at trigger time, so
		// an operator can drop a freshly trained model in place while the
		// daemon runs.
		cfg.Retrain = func(context.Context) error {
			cand, err := loadModel(o.shadowModel)
			if err != nil {
				return fmt.Errorf("load shadow model: %w", err)
			}
			if err := srv.SetShadow(cand); err != nil {
				return fmt.Errorf("arm shadow model: %w", err)
			}
			logf("reverify: drift retrain armed shadow model %.12s from %s", cand.Fingerprint(), o.shadowModel)
			return nil
		}
	}

	pipe := reverify.New(srv, cfg)
	srv.RegisterMetrics(pipe.Metrics())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := pipe.Run(ctx); err != nil && ctx.Err() == nil {
			logf("reverify pipeline stopped: %v", err)
		}
	}()
	logf("reverify pipeline running (interval %v, rate %.2f/s, drift threshold %.3f)",
		o.interval, o.rate, o.threshold)
	return func() {
		cancel()
		<-done
	}, nil
}

func run(modelPath, addr string, cfg serve.Config, worldSeed int64, worldSnap, worldLegit, worldIllegit int, drain time.Duration, pprofAddr string, rev reverifyOpts) error {
	if cfg.Workers > 0 {
		parallel.SetDefault(cfg.Workers)
	}
	if pprofAddr != "" {
		if err := servePprof(pprofAddr); err != nil {
			return err
		}
	}

	model, err := loadModel(modelPath)
	if err != nil {
		return fmt.Errorf("load model: %w", err)
	}

	if worldSeed > 0 {
		cfg.Fetcher = webgen.Generate(webgen.Config{
			Seed: worldSeed, Snapshot: worldSnap,
			NumLegit: worldLegit, NumIllegit: worldIllegit,
		})
		logf("serving a synthetic world (seed %d, %d+%d sites)", worldSeed, worldLegit, worldIllegit)
	} else {
		cfg.Fetcher = &crawler.HTTPFetcher{UserAgent: "pharmaverify"}
	}

	srv, err := serve.New(model, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	stopReverify, err := startReverify(srv, rev)
	if err != nil {
		return err
	}
	defer stopReverify()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logf("%s listening on %s, model %.12s (%s)",
		buildinfo.String("pharmaverifyd"), ln.Addr(), srv.ModelFingerprint(), modelPath)

	// SIGHUP hot-reloads the model file; SIGINT/SIGTERM begin the
	// graceful drain. A failed reload keeps the old model serving — a
	// bad deploy must never take a healthy daemon down.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	term := make(chan os.Signal, 1)
	signal.Notify(term, os.Interrupt, syscall.SIGTERM)

	for {
		select {
		case err := <-serveErr:
			return fmt.Errorf("listener failed: %w", err)
		case <-hup:
			next, err := loadModel(modelPath)
			if err != nil {
				srv.RecordReloadFailure()
				logf("SIGHUP reload failed, keeping model %.12s: %v", srv.ModelFingerprint(), err)
				continue
			}
			old := srv.ModelFingerprint()
			srv.SwapModel(next)
			logf("SIGHUP reload: model %.12s -> %.12s", old, srv.ModelFingerprint())
		case sig := <-term:
			logf("%v: draining (grace %v)", sig, drain)
			srv.SetDraining(true)
			ctx, cancel := context.WithTimeout(context.Background(), drain)
			defer cancel()
			if err := httpSrv.Shutdown(ctx); err != nil {
				return fmt.Errorf("drain incomplete: %w", err)
			}
			logf("drained cleanly, exiting")
			return nil
		}
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pharmaverifyd: %s %s\n",
		time.Now().UTC().Format(time.RFC3339), fmt.Sprintf(format, args...))
}
