package bench

import (
	"strings"
	"testing"
	"time"
)

func TestWorkerMatrix(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{3, []int{1, 2, 3}},
		{8, []int{1, 2, 8}},
	}
	for _, tc := range cases {
		got := workerMatrix(tc.max)
		if len(got) != len(tc.want) {
			t.Errorf("workerMatrix(%d) = %v, want %v", tc.max, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("workerMatrix(%d) = %v, want %v", tc.max, got, tc.want)
				break
			}
		}
	}
}

// scalingEntry fabricates a heavy entry with the given efficiency on
// the widest leg.
func scalingEntry(id string, workers int, eff float64) BenchEntry {
	seq := 3 * int64(time.Second)
	speedup := eff * float64(workers)
	return BenchEntry{
		ID:    id,
		Heavy: true,
		Legs: []BenchLeg{
			{Workers: 1, NS: seq, Speedup: 1, Efficiency: 1, Identical: true},
			{Workers: workers, NS: int64(float64(seq) / speedup), Speedup: speedup, Efficiency: eff, Identical: true},
		},
		Identical: true,
	}
}

func multiCoreReport(entries ...BenchEntry) *BenchReport {
	return &BenchReport{
		Workers:      4,
		WorkerMatrix: []int{1, 2, 4},
		GoMaxProcs:   4,
		Entries:      entries,
	}
}

func TestCheckParallelEfficiencyPasses(t *testing.T) {
	rep := multiCoreReport(
		scalingEntry("7", 4, 0.80),
		scalingEntry("8", 4, 0.40),
		// Light entries are exempt however badly they scale.
		BenchEntry{ID: "1", Heavy: false, Identical: true,
			Legs: []BenchLeg{{Workers: 1, Speedup: 1, Efficiency: 1, Identical: true},
				{Workers: 4, Speedup: 0.9, Efficiency: 0.225, Identical: true}}},
	)
	if err := CheckParallelEfficiency(rep); err != nil {
		t.Fatalf("healthy report rejected: %v", err)
	}
}

func TestCheckParallelEfficiencyFailsBelowFloor(t *testing.T) {
	rep := multiCoreReport(scalingEntry("7", 4, 0.80), scalingEntry("8", 4, 0.20))
	err := CheckParallelEfficiency(rep)
	if err == nil || !strings.Contains(err.Error(), "efficiency") {
		t.Fatalf("err = %v, want efficiency failure", err)
	}
	if !strings.Contains(err.Error(), "entry 8") {
		t.Fatalf("err = %v, want the failing entry named", err)
	}
}

func TestCheckParallelEfficiencyDefaultFloor(t *testing.T) {
	rep := multiCoreReport(scalingEntry("7", 4, DefaultEfficiencyFloor-0.05))
	if err := CheckParallelEfficiency(rep); err == nil {
		t.Fatal("entry below the default floor passed")
	}
	rep2 := multiCoreReport(scalingEntry("7", 4, DefaultEfficiencyFloor+0.05))
	if err := CheckParallelEfficiency(rep2); err != nil {
		t.Fatalf("entry above the default floor rejected: %v", err)
	}
}

func TestCheckParallelEfficiencySkipsSingleCore(t *testing.T) {
	// A report recorded with GOMAXPROCS=1 measures goroutine switching,
	// not scaling: the gate must pass it through untouched.
	rep := multiCoreReport(scalingEntry("7", 4, 0.10))
	rep.GoMaxProcs = 1
	if err := CheckParallelEfficiency(rep); err != nil {
		t.Fatalf("gomaxprocs=1 report not skipped: %v", err)
	}
	rep = multiCoreReport(scalingEntry("7", 1, 0.10))
	rep.Workers = 1
	if err := CheckParallelEfficiency(rep); err != nil {
		t.Fatalf("workers=1 report not skipped: %v", err)
	}
}

func TestCheckParallelEfficiencyRejectsNonIdentical(t *testing.T) {
	bad := scalingEntry("7", 4, 0.80)
	bad.Identical = false
	err := CheckParallelEfficiency(multiCoreReport(bad))
	if err == nil || !strings.Contains(err.Error(), "identical") {
		t.Fatalf("err = %v, want byte-identity failure", err)
	}
}

func TestCheckParallelEfficiencyRejectsPreMatrixReports(t *testing.T) {
	legless := BenchEntry{ID: "7", Heavy: true, Identical: true}
	err := CheckParallelEfficiency(multiCoreReport(legless))
	if err == nil || !strings.Contains(err.Error(), "legs") {
		t.Fatalf("err = %v, want pre-matrix rejection", err)
	}
}

func TestCheckParallelEfficiencyNeedsHeavyEntries(t *testing.T) {
	light := scalingEntry("1", 4, 0.9)
	light.Heavy = false
	err := CheckParallelEfficiency(multiCoreReport(light))
	if err == nil || !strings.Contains(err.Error(), "heavy") {
		t.Fatalf("err = %v, want no-heavy-entries failure", err)
	}
}
