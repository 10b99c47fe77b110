package core

import (
	"context"
	"fmt"

	"pharmaverify/internal/dataset"
	"pharmaverify/internal/eval"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/ml/ensemble"
	"pharmaverify/internal/parallel"
)

// EnsembleConfig parameterizes the ensemble-selection experiment
// (§6.3.3), which combines the text and network model libraries.
type EnsembleConfig struct {
	// Terms is the TF-IDF subsample size (the paper reports the
	// 1000-word case; default 1000).
	Terms int
	// Folds and Seed as elsewhere.
	Folds int
	Seed  int64
	// MaxRounds bounds the greedy selection (default 20).
	MaxRounds int
	// Network configures the network library member.
	Network NetworkConfig
	// Workers bounds fold-level concurrency (0 = process default,
	// 1 = sequential). Results are identical at every worker count.
	Workers int
}

func (c EnsembleConfig) withDefaults() EnsembleConfig {
	if c.Terms == 0 {
		c.Terms = 1000
	}
	if c.Folds == 0 {
		c.Folds = 3
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 20
	}
	return c
}

// ensembleMember is one library model with its own feature view.
type ensembleMember struct {
	name string
	clf  ml.Classifier
	ds   *ml.Dataset // feature view aligned with snapshot order
}

// EnsembleCV runs cross-validated ensemble selection over a library of
// heterogeneous models: NBM on term counts, SVM and J48 on TF-IDF, MLP
// on N-Gram-Graph similarities, and Naïve Bayes on TrustRank scores.
// Within each fold the training split is divided into a build portion
// (model fitting) and a hillclimb portion (greedy selection), as in
// Caruana et al.
func EnsembleCV(snap *dataset.Snapshot, cfg EnsembleConfig) (eval.CVResult, error) {
	return EnsembleCVCtx(context.Background(), snap, cfg)
}

// EnsembleCVCtx is EnsembleCV with cooperative cancellation: the fold
// fan-out and the per-fold library training both stop dispatching once
// ctx is cancelled, drain, and surface ctx's error.
func EnsembleCVCtx(ctx context.Context, snap *dataset.Snapshot, cfg EnsembleConfig) (eval.CVResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	labels := snap.Labels()
	names := snap.Domains()

	labelDS := &ml.Dataset{Dim: 1, X: make([]ml.Vector, len(labels)), Y: labels}
	folds := eval.StratifiedKFold(labelDS, cfg.Folds, cfg.Seed)

	// Feature views shared across folds (text representations are fixed
	// over the corpus, like the Weka ARFF inputs of the paper).
	countsDS := TFIDFDataset(snap, TextConfig{Classifier: NBM, Terms: cfg.Terms, Seed: cfg.Seed})
	tfidfDS := TFIDFDataset(snap, TextConfig{Classifier: SVM, Terms: cfg.Terms, Seed: cfg.Seed})
	// NGG features come from the shared training plane: the rendered
	// documents and their prebuilt graphs are fold-independent; only the
	// class graphs (merged from each fold's build split) differ per
	// fold. One acquire spans every fold, so the graphs are built once
	// for the whole run.
	plane := trainingPlaneFor(snap, cfg.Terms, cfg.Seed)
	plane.acquire()
	defer plane.release()
	// The grain autotuner splits the worker budget between the fold
	// fan-out and each fold's document pass.
	plan := parallel.PlanGrainFor("ensemble-cv", parallel.Workers(cfg.Workers), len(folds), len(plane.Docs))

	// Folds are fully independent here — every random choice derives
	// from cfg.Seed+fold — so they fan out without a pre-draw phase.
	frs, err := parallel.MapErrCtx(ctx, len(folds), plan.FoldWorkers, func(f int) (eval.FoldResult, error) {
		trainIdx, testIdx := folds.TrainTest(f)

		// Split training into build (2/3) and hillclimb (1/3).
		trainLabels := &ml.Dataset{Dim: 1, X: make([]ml.Vector, len(trainIdx)), Y: pick(labels, trainIdx)}
		inner := eval.StratifiedKFold(trainLabels, 3, cfg.Seed+int64(f))
		buildRel, hillRel := inner.TrainTest(0)
		buildIdx := pick(trainIdx, buildRel)
		hillIdx := pick(trainIdx, hillRel)

		// Network features: TrustRank seeded with the build legitimate
		// pharmacies only, so hillclimb instances are held out.
		seeds := seedMap(snap, buildIdx, cfg.Network.Variant)
		netScores, err := NetworkScores(snap, seeds, cfg.Network)
		if err != nil {
			return eval.FoldResult{}, err
		}
		netDS := scoreDataset(netScores, labels, names)

		// NGG features: class graphs from half of the build split. The
		// fold's matrix is deterministic given (snapshot, terms, folds,
		// seed, fold), so it is memoized like the other feature views —
		// repeated ensemble runs (re-verification sweeps, the daemon's
		// retrain loop) reuse it outright.
		foldKey := fmt.Sprintf("nggfold|%s|%d|%d|%d|%d", snap.ContentHash(), cfg.Terms, cfg.Folds, cfg.Seed, f)
		v, _ := featureCache.Do(foldKey, func() (any, error) {
			return plane.featureDataset(buildIdx[:len(buildIdx)/2], plan.DocWorkers, plan.DocGrain), nil
		})
		nggDS := v.(*ml.Dataset)

		members := []ensembleMember{
			{name: "NBM(text)", ds: countsDS},
			{name: "SVM(text)", ds: tfidfDS},
			{name: "J48(text)", ds: tfidfDS},
			{name: "MLP(ngg)", ds: nggDS},
			{name: "NB(network)", ds: netDS},
		}
		kinds := []ClassifierKind{NBM, SVM, J48, MLP, NB}
		// Library members are independent given the shared feature
		// views, so they train concurrently too.
		clfs, err := parallel.MapErrCtx(ctx, len(members), cfg.Workers, func(m int) (ml.Classifier, error) {
			clf, err := NewClassifier(kinds[m], cfg.Seed)
			if err != nil {
				return nil, err
			}
			if err := clf.Fit(members[m].ds.Subset(buildIdx)); err != nil {
				return nil, err
			}
			return clf, nil
		})
		if err != nil {
			return eval.FoldResult{}, err
		}
		for m := range members {
			members[m].clf = clfs[m]
		}

		// Greedy selection on the hillclimb split.
		probs := make([][]float64, len(members))
		hillLabels := pick(labels, hillIdx)
		for m := range members {
			p := make([]float64, len(hillIdx))
			for j, i := range hillIdx {
				p[j] = members[m].clf.Prob(members[m].ds.X[i])
			}
			probs[m] = p
		}
		selected := ensemble.SelectGreedy(probs, hillLabels, 2, cfg.MaxRounds, nil)

		// Evaluate the averaged bag on the test fold.
		fr := eval.FoldResult{TestIndex: testIdx}
		for _, i := range testIdx {
			modelProbs := make([]float64, len(members))
			for m := range members {
				modelProbs[m] = members[m].clf.Prob(members[m].ds.X[i])
			}
			p := ensemble.AverageSelected(selected, modelProbs)
			fr.Scores = append(fr.Scores, p)
			fr.Labels = append(fr.Labels, labels[i])
			fr.Confusion.Observe(labels[i], ml.PredictFromProb(p))
		}
		fr.AUC = eval.AUC(fr.Scores, fr.Labels)
		return fr, nil
	})
	if err != nil {
		return eval.CVResult{}, err
	}
	return eval.CVResult{Folds: frs}, nil
}

// CombinedFeaturesCV is the future-work ablation (§7b): a single
// classifier over the concatenation of TF-IDF text features and the
// TrustRank network score.
func CombinedFeaturesCV(snap *dataset.Snapshot, clf ClassifierKind, terms int, folds int, seed int64, net NetworkConfig) (eval.CVResult, error) {
	if folds == 0 {
		folds = 3
	}
	labels := snap.Labels()
	names := snap.Domains()
	text := TFIDFDataset(snap, TextConfig{Classifier: clf, Terms: terms, Seed: seed})

	labelDS := &ml.Dataset{Dim: 1, X: make([]ml.Vector, len(labels)), Y: labels}
	kf := eval.StratifiedKFold(labelDS, folds, seed)

	frs, err := parallel.MapErr(len(kf), 0, func(f int) (eval.FoldResult, error) {
		trainIdx, testIdx := kf.TrainTest(f)
		seeds := seedMap(snap, trainIdx, net.Variant)
		netScores, err := NetworkScores(snap, seeds, net)
		if err != nil {
			return eval.FoldResult{}, err
		}
		// Concatenate: text dims + 1 trust dim.
		ds := &ml.Dataset{Dim: text.Dim + 1}
		for i := range labels {
			x := text.X[i]
			ind := append(append([]int32{}, x.Ind...), int32(text.Dim))
			val := append(append([]float64{}, x.Val...), netScores[i])
			ds.Add(ml.Vector{Ind: ind, Val: val}, labels[i], names[i])
		}
		c, err := NewClassifier(clf, seed)
		if err != nil {
			return eval.FoldResult{}, err
		}
		if err := c.Fit(ds.Subset(trainIdx)); err != nil {
			return eval.FoldResult{}, err
		}
		fr := eval.FoldResult{TestIndex: testIdx}
		for _, i := range testIdx {
			p := c.Prob(ds.X[i])
			fr.Scores = append(fr.Scores, p)
			fr.Labels = append(fr.Labels, labels[i])
			fr.Confusion.Observe(labels[i], ml.PredictFromProb(p))
		}
		fr.AUC = eval.AUC(fr.Scores, fr.Labels)
		return fr, nil
	})
	if err != nil {
		return eval.CVResult{}, err
	}
	return eval.CVResult{Folds: frs}, nil
}

func pick(src []int, idx []int) []int {
	out := make([]int, len(idx))
	for j, i := range idx {
		out[j] = src[i]
	}
	return out
}
