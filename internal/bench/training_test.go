package bench

import (
	"testing"
	"time"

	"pharmaverify/internal/webgen"
)

// TestTrainingBenchmarksIdentity runs the training-path kernels at a
// short benchtime and checks the gate's invariants: bit-identical to
// their naive references, non-degenerate measurements.
func TestTrainingBenchmarksIdentity(t *testing.T) {
	for _, e := range RunTrainingBenchmarks(5 * time.Millisecond) {
		if !e.Identical {
			t.Errorf("training kernel %s: output differs from the naive reference", e.ID)
		}
		if e.NaiveNSOp <= 0 || e.KernelNSOp <= 0 {
			t.Errorf("training kernel %s: degenerate timing naive=%v kernel=%v", e.ID, e.NaiveNSOp, e.KernelNSOp)
		}
	}
}

// TestTrainingMeetsFloors asserts the tentpole's deterministic
// acceptance bars: ensemble selection and webgen generation
// bit-identical to their retained references and past their
// allocation-ratio floors (at least 2x lighter). Their wall-clock
// floors (ensemble-selection at least 2x faster) are timed by the CI
// bench-regression gate, not inside go test.
func TestTrainingMeetsFloors(t *testing.T) {
	if err := CheckKernelFloors(RunTrainingBenchmarks(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckKernelRegressionCoversTraining pins that the shared gate
// judges training entries by their bars like any kernel entry.
func TestCheckKernelRegressionCoversTraining(t *testing.T) {
	checkGateFailures(t, "ensemble-selection", "webgen-world")
}

// TestWorldsIdenticalDetectsDivergence exercises the comparator the
// webgen-world identity check relies on.
func TestWorldsIdenticalDetectsDivergence(t *testing.T) {
	a := webgen.Generate(trainingWebgenConfig)
	b := webgen.Generate(trainingWebgenConfig)
	if !worldsIdentical(a, b) {
		t.Fatal("identical configurations generated different worlds")
	}
	d := b.Domains()[0]
	b.Site(d).Pages[b.Site(d).Paths[0]] += "x"
	if worldsIdentical(a, b) {
		t.Fatal("mutated page not detected")
	}
}
