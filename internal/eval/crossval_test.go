package eval

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pharmaverify/internal/ml"
)

func imbalancedDataset(n, nPos int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &ml.Dataset{Dim: 2}
	for i := 0; i < n; i++ {
		y := ml.Illegitimate
		mu := -1.0
		if i < nPos {
			y = ml.Legitimate
			mu = 1.0
		}
		ds.Add(ml.NewVector([]float64{mu + rng.NormFloat64()*0.3, rng.NormFloat64()}), y, "")
	}
	return ds
}

func TestStratifiedKFoldPreservesDistribution(t *testing.T) {
	ds := imbalancedDataset(300, 36, 1)
	folds := StratifiedKFold(ds, 3, 42)
	if len(folds) != 3 {
		t.Fatalf("got %d folds", len(folds))
	}
	seen := map[int]bool{}
	for f, fold := range folds {
		var pos int
		for _, i := range fold {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
			if ds.Y[i] == ml.Legitimate {
				pos++
			}
		}
		if pos != 12 {
			t.Errorf("fold %d has %d positives, want 12", f, pos)
		}
	}
	if len(seen) != 300 {
		t.Errorf("folds cover %d of 300 instances", len(seen))
	}
}

func TestStratifiedKFoldDeterministic(t *testing.T) {
	ds := imbalancedDataset(100, 20, 2)
	a := StratifiedKFold(ds, 3, 7)
	b := StratifiedKFold(ds, 3, 7)
	for f := range a {
		sort.Ints(a[f])
		sort.Ints(b[f])
		for i := range a[f] {
			if a[f][i] != b[f][i] {
				t.Fatal("same seed produced different folds")
			}
		}
	}
}

func TestTrainTestPartition(t *testing.T) {
	ds := imbalancedDataset(90, 30, 3)
	folds := StratifiedKFold(ds, 3, 1)
	train, test := folds.TrainTest(1)
	if len(train)+len(test) != 90 {
		t.Fatalf("train+test = %d", len(train)+len(test))
	}
	inTest := map[int]bool{}
	for _, i := range test {
		inTest[i] = true
	}
	for _, i := range train {
		if inTest[i] {
			t.Fatal("train and test overlap")
		}
	}
}

// thresholdClassifier predicts legitimate when feature 0 is positive —
// a stand-in learner for CV plumbing tests.
type thresholdClassifier struct{ fitted bool }

func (c *thresholdClassifier) Fit(ds *ml.Dataset) error { c.fitted = true; return nil }
func (c *thresholdClassifier) Prob(x ml.Vector) float64 { return ml.Sigmoid(4 * x.At(0)) }
func (c *thresholdClassifier) Predict(x ml.Vector) int {
	return ml.PredictFromProb(c.Prob(x))
}

func TestCrossValidateSeparableData(t *testing.T) {
	ds := imbalancedDataset(300, 60, 4)
	res, err := CrossValidate(ds, 3, 99, func() ml.Classifier { return &thresholdClassifier{} }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Folds) != 3 {
		t.Fatalf("folds = %d", len(res.Folds))
	}
	if acc := res.Mean(MetricAccuracy); acc < 0.95 {
		t.Errorf("accuracy on separable data = %v", acc)
	}
	if auc := res.Mean(MetricAUC); auc < 0.97 {
		t.Errorf("AUC on separable data = %v", auc)
	}
	pooled := res.Pooled()
	if pooled.Total() != 300 {
		t.Errorf("pooled total = %d, want 300", pooled.Total())
	}
}

func TestCrossValidateAppliesSamplerOnlyToTrain(t *testing.T) {
	ds := imbalancedDataset(120, 20, 5)
	var sampledSizes []int
	sampler := func(d *ml.Dataset, rng *rand.Rand) *ml.Dataset {
		// Fake undersampler that halves the data.
		idx := make([]int, 0, d.Len()/2)
		for i := 0; i < d.Len(); i += 2 {
			idx = append(idx, i)
		}
		out := d.Subset(idx)
		sampledSizes = append(sampledSizes, out.Len())
		return out
	}
	res, err := CrossValidate(ds, 3, 1, func() ml.Classifier { return &thresholdClassifier{} }, sampler)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampledSizes) != 3 {
		t.Fatalf("sampler called %d times", len(sampledSizes))
	}
	// Test folds must still be the natural data: pooled total = all.
	if res.Pooled().Total() != 120 {
		t.Errorf("test instances = %d, want 120", res.Pooled().Total())
	}
}

func TestCVResultCI(t *testing.T) {
	ds := imbalancedDataset(300, 60, 6)
	res, err := CrossValidate(ds, 3, 123, func() ml.Classifier { return &thresholdClassifier{} }, nil)
	if err != nil {
		t.Fatal(err)
	}
	ci := res.CI95(MetricAccuracy)
	if ci < 0 || ci > 0.1 {
		t.Errorf("CI = %v implausible", ci)
	}
	if math.IsNaN(res.PooledAUC()) {
		t.Error("PooledAUC NaN")
	}
}

// TestCrossValidatePreparedFoldsEquivalent pins the fold-plane sharing
// contract: a CV run over externally prepared folds is bit-identical to
// one that draws its own, with and without a stream-consuming sampler,
// and a reused prepared set keeps later runs identical too.
func TestCrossValidatePreparedFoldsEquivalent(t *testing.T) {
	ds := imbalancedDataset(120, 24, 7)
	trainer := func() ml.Classifier { return &thresholdClassifier{} }
	sampler := func(d *ml.Dataset, rng *rand.Rand) *ml.Dataset {
		// Draw from the master stream so stream alignment is exercised.
		idx := rng.Perm(d.Len())[:d.Len()/2+1]
		sort.Ints(idx)
		return d.Subset(idx)
	}
	for _, smp := range []Sampler{nil, sampler} {
		inline, err := CrossValidate(ds, 3, 42, trainer, smp)
		if err != nil {
			t.Fatal(err)
		}
		_, inputs, err := PrepareFoldsCtx(nil, ds, 3, 42, smp)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 { // a prepared set is reusable across runs
			prepared, err := CrossValidateOpts(ds, 3, 42, trainer, smp, CVOptions{Prepared: inputs})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inline, prepared) {
				t.Fatalf("prepared-folds CV differs from inline pre-draw (sampler=%v)", smp != nil)
			}
		}
	}
	// Mismatched fold counts are rejected, not silently misused.
	if _, err := CrossValidateOpts(ds, 4, 42, trainer, nil, CVOptions{Prepared: make([]FoldInput, 3)}); err == nil {
		t.Fatal("k=4 accepted 3 prepared folds")
	}
}
