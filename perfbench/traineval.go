package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"pharmaverify/internal/core"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/eval"
	"pharmaverify/internal/featcache"
	"pharmaverify/internal/webgen"
)

// train-eval: the operation is one cross-validated configuration (a
// cell of the paper's Tables 3–15) on a Dataset-1-shaped snapshot: the
// class ratio of Dataset 1 at 210 pharmacies (24 legitimate, 186
// illegitimate). The size keeps a round near two seconds, so a 20-second
// run holds enough rounds for its tail to land among the n-gram-graph
// cells even when the machine runs at half speed. A round runs every cell once, in an order drawn from
// the seed. Every cell starts from an empty feature cache, so it pays
// its own featurization, as the first cell of a table run does, and its
// cost does not depend on the cells before it. MLP cells are left out:
// one takes over a minute, dwarfing the rest.
const (
	evalLegit, evalIllegit = 24, 186
	evalNetworkSize        = 40
	// evalSeed seeds subsampling, folds and learners in every cell, so
	// every seed's rounds hold the same work.
	evalSeed = 1
)

// evalCell is one configuration of the round.
type evalCell struct {
	name string
	// layer names the per-layer metric the cell's time counts towards.
	layer string
	tfidf bool
	terms int
	clf   core.ClassifierKind
	run   func(snap *dataset.Snapshot, seed int64, workers int) (any, error)
}

func textCell(rep core.Representation, clf core.ClassifierKind, terms int) evalCell {
	layer := "ml.cv_ms." + strings.ToLower(string(clf))
	if rep == core.NGramGraphs {
		layer = "ngram.featurize_s"
	}
	return evalCell{
		name:  fmt.Sprintf("%s %s terms=%s", rep, clf, termsLabel(terms)),
		layer: layer,
		tfidf: rep == core.TFIDF,
		terms: terms,
		clf:   clf,
		run: func(snap *dataset.Snapshot, seed int64, workers int) (any, error) {
			return core.TextCV(snap, core.TextConfig{Representation: rep, Classifier: clf, Terms: terms, Seed: seed, Workers: workers})
		},
	}
}

func termsLabel(terms int) string {
	if terms == 0 {
		return "all"
	}
	return fmt.Sprint(terms)
}

// evalRound lists the round's cells in the order they run.
func evalRound() []evalCell {
	var cells []evalCell
	for _, terms := range []int{100, 1000, 0} {
		for _, clf := range []core.ClassifierKind{core.NB, core.NBM, core.SVM, core.J48} {
			cells = append(cells, textCell(core.TFIDF, clf, terms))
		}
	}
	cells = append(cells,
		textCell(core.NGramGraphs, core.NB, 100),
		textCell(core.NGramGraphs, core.J48, 100),
		evalCell{name: "network TrustRank NB", layer: "trust.network_cv_ms", run: func(snap *dataset.Snapshot, seed int64, _ int) (any, error) {
			return core.NetworkCV(snap, core.NetworkConfig{Seed: seed})
		}},
		evalCell{name: "ranking TF-IDF NBM + TrustRank", layer: "core.rank_cv_ms", run: func(snap *dataset.Snapshot, seed int64, _ int) (any, error) {
			return core.RankCV(snap, core.RankConfig{Seed: seed})
		}},
		evalCell{name: "core.Train SVM", layer: "core.train_s", run: func(snap *dataset.Snapshot, seed int64, _ int) (any, error) {
			return core.TrainCtx(context.Background(), snap, core.Options{Seed: seed})
		}},
	)
	return cells
}

// checkCell tests one cell's result and returns a one-line summary.
func checkCell(c evalCell, res any, snap *dataset.Snapshot, majority float64) (string, error) {
	switch r := res.(type) {
	case eval.CVResult:
		conf := r.Pooled()
		if err := checkConfusion(c.name, conf, snap.Len()); err != nil {
			return "", err
		}
		acc := conf.Accuracy()
		if c.tfidf && acc <= majority {
			return "", fmt.Errorf("%s: accuracy %.4f does not beat the majority-class rate %.4f", c.name, acc, majority)
		}
		return fmt.Sprintf("accuracy %.4f AUC %.4f", acc, r.PooledAUC()), nil
	case core.RankResult:
		if len(r.Ranking) != snap.Len() {
			return "", fmt.Errorf("%s: ranking holds %d pharmacies, snapshot has %d", c.name, len(r.Ranking), snap.Len())
		}
		return fmt.Sprintf("pairwise orderedness %.4f", r.PairwiseOrderedness), nil
	case *core.Verifier:
		if r == nil || r.Fingerprint() == "" {
			return "", fmt.Errorf("%s: no trained model", c.name)
		}
		return "model " + r.Fingerprint()[:12], nil
	}
	return "", fmt.Errorf("%s: unexpected result %T", c.name, res)
}

func runTrainEval(cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg)
	tr := newTracer(cfg.trace)
	snap, stages, err := repeatSetup(o, func(st *stageTimes) (*dataset.Snapshot, error) {
		t0 := time.Now()
		w := webgen.Generate(webgen.Config{Seed: worldSeed, Snapshot: 1,
			NumLegit: evalLegit, NumIllegit: evalIllegit, NetworkSize: evalNetworkSize})
		t1 := time.Now()
		snap, err := dataset.BuildCtx(context.Background(), "dataset-1-small", w, w.Domains(), w.Labels(), dataset.BuildOptions{})
		if err != nil {
			return nil, err
		}
		st.generate += t1.Sub(t0)
		st.build += time.Since(t1)
		return snap, nil
	})
	if err != nil {
		return nil, err
	}
	stageLayers(o, stages)
	legit, illegit := snap.Counts()
	majority := float64(max(legit, illegit)) / float64(snap.Len())
	cells := evalRound()

	// Per-layer time over the timed phase, and per-round medians for the
	// per-run metrics.
	layerTime := map[string]time.Duration{}
	layerCells := map[string]int{}
	var perRound = map[string][]float64{}
	summaries := make([]string, len(cells))
	// Resetting the feature cache resets its counters too, so they are
	// tallied before every reset.
	var feat featcache.CacheStats
	resetFeatureCache := func() {
		st := core.FeatureCacheScopeStats()[featcache.ScopeTraining]
		feat.Hits += st.Hits
		feat.Misses += st.Misses
		core.ResetFeatureCache()
	}
	resetFeatureCache()
	feat = featcache.CacheStats{}

	rng := rand.New(rand.NewSource(cfg.seed))
	o.ph = startPhase(o.speed)
	start := time.Now()
	for len(o.rounds) == 0 || time.Since(start) < cfg.seconds {
		round := o.startRound(o.attempted)
		roundTime := map[string]time.Duration{}
		for _, i := range rng.Perm(len(cells)) {
			c := cells[i]
			resetFeatureCache()
			if cfg.trace && c.tfidf {
				// Vectorization on its own, before the cell that reuses it.
				t0 := time.Now()
				core.TFIDFDataset(snap, core.TextConfig{Classifier: c.clf, Terms: c.terms, Seed: evalSeed})
				t1 := time.Now()
				tr.record("vectorize.TFIDFDataset", 0, t0, t1)
				roundTime["vectorize.tfidf_s"] += t1.Sub(t0)
			}
			t0 := time.Now()
			res, err := c.run(snap, evalSeed, 0)
			t1 := time.Now()
			tr.record(c.name, 0, t0, t1)
			o.attempted++
			if err != nil {
				o.failed++
				o.problem("train-eval: %s: %v", c.name, err)
				continue
			}
			o.lat = append(o.lat, t1.Sub(t0))
			roundTime[c.layer] += t1.Sub(t0)
			layerCells[c.layer]++
			if summaries[i], err = checkCell(c, res, snap, majority); err != nil {
				o.problem("train-eval: %v", err)
			}
		}
		o.endRound(round)
		for layer, d := range roundTime {
			layerTime[layer] += d
			perRound[layer] = append(perRound[layer], d.Seconds())
		}
	}
	o.ph.stop()
	resetFeatureCache()

	for i, c := range cells {
		o.note("train-eval cell %-34s %s", c.name, summaries[i])
	}
	if err := checkWorkerIdentity(snap, cfg.workers); err != nil {
		o.problem("train-eval: %v", err)
	} else {
		o.note("train-eval: %s gives identical results at 1 and %d workers", cells[6].name, cfg.workers)
	}
	o.note("train-eval: snapshot of %d pharmacies (%d legitimate), majority-class rate %.4f; %d cells per round",
		snap.Len(), legit, majority, len(cells))

	if cfg.trace {
		ops := float64(o.attempted)
		var selves []float64
		for layer, d := range layerTime {
			selves = append(selves, ms(d)/ops)
			if strings.HasSuffix(layer, "_s") {
				o.layers[layer] = median(perRound[layer])
			} else {
				o.layers[layer] = ms(d) / float64(layerCells[layer])
			}
		}
		o.layers["featcache.hits"] = float64(feat.Hits)
		o.layers["featcache.misses"] = float64(feat.Misses)
		reconcile(o, selves, ms(o.ph.wall())/ops)
		path, err := tr.write(cfg.out, "train-eval", cfg.seed)
		if err != nil {
			return nil, err
		}
		o.note("trace: %d spans written to %s (%d dropped)", len(tr.spans), path, tr.dropped)
	}
	return o, nil
}

// checkWorkerIdentity runs one cell from an empty feature cache at one
// worker and at workers workers; the results must be identical.
func checkWorkerIdentity(snap *dataset.Snapshot, workers int) error {
	cell := evalRound()[6]
	core.ResetFeatureCache()
	one, err := cell.run(snap, evalSeed, 1)
	if err != nil {
		return err
	}
	core.ResetFeatureCache()
	many, err := cell.run(snap, evalSeed, workers)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(one, many) {
		return fmt.Errorf("%s: results at 1 and %d workers differ", cell.name, workers)
	}
	return nil
}
