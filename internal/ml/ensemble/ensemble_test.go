package ensemble

import (
	"math"
	"math/rand"
	"testing"

	"pharmaverify/internal/eval"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/ml/bayes"
	"pharmaverify/internal/ml/svm"
	"pharmaverify/internal/ml/tree"
)

// noisyDataset: feature 0 separates the classes; features 1-2 are noise.
func noisyDataset(n int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &ml.Dataset{Dim: 3}
	for i := 0; i < n; i++ {
		y := 0
		if i%5 == 0 { // imbalanced, like the pharmacy data
			y = 1
		}
		mu := -0.8
		if y == ml.Legitimate {
			mu = 0.8
		}
		ds.Add(ml.NewVector([]float64{
			mu + rng.NormFloat64()*0.6,
			rng.NormFloat64(),
			rng.NormFloat64(),
		}), y, "")
	}
	return ds
}

func library() []Factory {
	return []Factory{
		{Name: "NB", New: func() ml.Classifier { return bayes.NewGaussian() }},
		{Name: "SVM", New: func() ml.Classifier { return svm.NewLinear() }},
		{Name: "J48", New: func() ml.Classifier { return tree.NewC45() }},
	}
}

func TestSelectionBeatsRandom(t *testing.T) {
	train := noisyDataset(600, 1)
	test := noisyDataset(300, 2)
	sel := New(library()...)
	sel.Seed = 3
	if err := sel.Fit(train); err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, test.Len())
	for i, x := range test.X {
		scores[i] = sel.Prob(x)
	}
	if auc := eval.AUC(scores, test.Y); auc < 0.85 {
		t.Errorf("ensemble AUC = %v", auc)
	}
}

func TestSelectionAtLeastAsGoodAsWorstSingle(t *testing.T) {
	train := noisyDataset(600, 4)
	test := noisyDataset(300, 5)

	var worst float64 = 1
	for _, f := range library() {
		clf := f.New()
		if err := clf.Fit(train); err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, test.Len())
		for i, x := range test.X {
			scores[i] = clf.Prob(x)
		}
		if auc := eval.AUC(scores, test.Y); auc < worst {
			worst = auc
		}
	}

	sel := New(library()...)
	sel.Seed = 6
	if err := sel.Fit(train); err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, test.Len())
	for i, x := range test.X {
		scores[i] = sel.Prob(x)
	}
	if auc := eval.AUC(scores, test.Y); auc < worst-0.05 {
		t.Errorf("ensemble AUC %v clearly below worst single %v", auc, worst)
	}
}

func TestSelectionSelectsSomething(t *testing.T) {
	sel := New(library()...)
	if err := sel.Fit(noisyDataset(300, 7)); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range sel.Selected() {
		total += c
	}
	if total == 0 {
		t.Error("no models selected")
	}
}

func TestSelectionWithReplacement(t *testing.T) {
	// A strong model should be selectable multiple times.
	sel := New(library()...)
	sel.MaxRounds = 10
	sel.Seed = 8
	if err := sel.Fit(noisyDataset(500, 9)); err != nil {
		t.Fatal(err)
	}
	for _, c := range sel.Selected() {
		if c > 1 {
			return // found a repeat: replacement works
		}
	}
	// Not an error per se (greedy may stop early), but the selected
	// multiset must still be non-empty.
	if len(sel.Selected()) == 0 {
		t.Error("empty selection")
	}
}

func TestSelectionErrors(t *testing.T) {
	if err := New().Fit(noisyDataset(100, 10)); err != ErrEmptyLibrary {
		t.Errorf("empty library: %v", err)
	}
	if err := New(library()...).Fit(&ml.Dataset{Dim: 1}); err != ml.ErrEmptyDataset {
		t.Errorf("empty dataset: %v", err)
	}
}

func TestSelectionUnfittedNeutral(t *testing.T) {
	sel := New(library()...)
	if p := sel.Prob(ml.NewVector([]float64{1})); p != 0.5 {
		t.Errorf("unfitted Prob = %v", p)
	}
}

func TestSelectionDeterministic(t *testing.T) {
	ds := noisyDataset(400, 11)
	a, b := New(library()...), New(library()...)
	a.Seed, b.Seed = 5, 5
	if err := a.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(ds); err != nil {
		t.Fatal(err)
	}
	x := ml.NewVector([]float64{0.5, 0, 0})
	if a.Prob(x) != b.Prob(x) {
		t.Error("same seed, different ensembles")
	}
}

func TestSelectionCustomMetric(t *testing.T) {
	sel := New(library()...)
	sel.Metric = func(scores []float64, labels []int) float64 {
		var c eval.Confusion
		for i, s := range scores {
			c.Observe(labels[i], ml.PredictFromProb(s))
		}
		return c.Accuracy()
	}
	if err := sel.Fit(noisyDataset(300, 12)); err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected()) == 0 {
		t.Error("no selection with custom metric")
	}
}

func TestBaggedSelection(t *testing.T) {
	train := noisyDataset(500, 20)
	test := noisyDataset(250, 21)
	sel := New(library()...)
	sel.Bags = 5
	sel.BagFraction = 0.67
	sel.Seed = 4
	if err := sel.Fit(train); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range sel.Selected() {
		total += c
	}
	if total == 0 {
		t.Fatal("bagged selection chose nothing")
	}
	scores := make([]float64, test.Len())
	for i, x := range test.X {
		scores[i] = sel.Prob(x)
	}
	if auc := eval.AUC(scores, test.Y); auc < 0.85 {
		t.Errorf("bagged ensemble AUC = %v", auc)
	}
}

func TestBaggedSelectionDeterministic(t *testing.T) {
	ds := noisyDataset(300, 22)
	mk := func() *Selection {
		s := New(library()...)
		s.Bags = 3
		s.Seed = 9
		return s
	}
	a, b := mk(), mk()
	if err := a.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(ds); err != nil {
		t.Fatal(err)
	}
	x := ml.NewVector([]float64{0.3, 0, 0})
	if a.Prob(x) != b.Prob(x) {
		t.Error("bagged selection not deterministic")
	}
}

func TestSelectionNamePredictAverage(t *testing.T) {
	sel := New(library()...)
	if sel.Name() != "EnsembleSelection" {
		t.Error("Name wrong")
	}
	ds := noisyDataset(300, 23)
	if err := sel.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for _, x := range ds.X[:20] {
		if sel.Predict(x) != ml.PredictFromProb(sel.Prob(x)) {
			t.Fatal("Predict inconsistent with Prob")
		}
	}
	// AverageSelected with empty selection is neutral.
	if AverageSelected(nil, []float64{0.9}) != 0.5 {
		t.Error("empty selection must be neutral")
	}
	if got := AverageSelected([]int{0, 0, 1}, []float64{0.6, 0.9}); math.Abs(got-(0.6+0.6+0.9)/3) > 1e-12 {
		t.Errorf("AverageSelected = %v", got)
	}
}

func TestSelectGreedyEmpty(t *testing.T) {
	if SelectGreedy(nil, nil, 2, 5, nil) != nil {
		t.Error("empty library must select nothing")
	}
}

// Shuffle reorders a library deterministically, for tests that need
// reproducible library orders.
func Shuffle(fs []Factory, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
}

func TestShuffleDeterministic(t *testing.T) {
	a, b := library(), library()
	Shuffle(a, 42)
	Shuffle(b, 42)
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("Shuffle not deterministic")
		}
	}
}

// TestSelectGreedyMatchesReference is the kernel's bit-identity
// property: on randomized probability tables, labels, library sizes and
// round budgets, the kernelized SelectGreedy must pick the exact
// sequence the pre-kernel reference picks, under the default AUC metric
// and a custom one.
func TestSelectGreedyMatchesReference(t *testing.T) {
	meanDiff := func(scores []float64, labels []int) float64 {
		var pos, neg, np, nn float64
		for i, s := range scores {
			if labels[i] == ml.Legitimate {
				pos += s
				np++
			} else {
				neg += s
				nn++
			}
		}
		return pos/math.Max(np, 1) - neg/math.Max(nn, 1)
	}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		models := 2 + rng.Intn(9)
		n := 10 + rng.Intn(60)
		probs := make([][]float64, models)
		for m := range probs {
			probs[m] = make([]float64, n)
			for i := range probs[m] {
				probs[m][i] = rng.Float64()
			}
		}
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(2)
		}
		initTop := 1 + rng.Intn(3)
		rounds := 1 + rng.Intn(25)
		metric := eval.AUC
		if trial%2 == 1 {
			metric = meanDiff
		}
		got := SelectGreedy(probs, labels, initTop, rounds, metric)
		want := SelectGreedyReference(probs, labels, initTop, rounds, metric)
		if len(got) != len(want) {
			t.Fatalf("trial %d: selected %d models, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: selection[%d] = %d, reference %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSelectGreedyAllocs pins the kernel's allocation profile: with an
// allocation-free metric, a whole selection run costs a small constant
// number of allocations (index/score tables, sum/avg/cand scratch and
// the selected slice) — independent of rounds and library size.
func TestSelectGreedyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const models, n = 12, 96
	probs := make([][]float64, models)
	for m := range probs {
		probs[m] = make([]float64, n)
		for i := range probs[m] {
			probs[m][i] = rng.Float64()
		}
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(2)
	}
	sum := func(scores []float64, labels []int) float64 {
		var s float64
		for i, v := range scores {
			if labels[i] == ml.Legitimate {
				s += v
			}
		}
		return s
	}
	allocs := testing.AllocsPerRun(20, func() {
		SelectGreedy(probs, labels, 2, 20, sum)
	})
	if allocs > 8 {
		t.Errorf("SelectGreedy costs %.1f allocs, want <= 8", allocs)
	}
}
