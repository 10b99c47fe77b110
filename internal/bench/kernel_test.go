package bench

import (
	"strings"
	"testing"
	"time"
)

// TestKernelBenchmarksIdentity runs the micro-benchmarks at a short
// benchtime and checks the invariants the regression gate relies on:
// every entry present, byte-identical to its naive reference, and
// non-degenerate measurements.
func TestKernelBenchmarksIdentity(t *testing.T) {
	entries := RunKernelBenchmarks(5 * time.Millisecond)
	want := map[string]bool{"ngg-compare-both": true, "ngg-compare-graphs": true, "tfidf-sparse": true}
	for _, e := range entries {
		if !want[e.ID] {
			t.Errorf("unexpected kernel entry %q", e.ID)
		}
		delete(want, e.ID)
		if !e.Identical {
			t.Errorf("kernel %s: output differs from the naive reference", e.ID)
		}
		if e.NaiveNSOp <= 0 || e.KernelNSOp <= 0 {
			t.Errorf("kernel %s: degenerate timing naive=%v kernel=%v", e.ID, e.NaiveNSOp, e.KernelNSOp)
		}
		if e.Speedup <= 0 {
			t.Errorf("kernel %s: speedup %v", e.ID, e.Speedup)
		}
	}
	for id := range want {
		t.Errorf("kernel entry %q missing", id)
	}
}

// TestKernelMeetsFloors asserts the optimization's deterministic
// acceptance bars: every kernel bit-identical to its naive reference
// and past its allocation-ratio floor (the both-classes Compare path at
// least 2x lighter). The wall-clock floors are timed by the CI
// bench-regression gate (experiments -bench-kernel-check) instead:
// timing a shared machine inside go test fails at random.
func TestKernelMeetsFloors(t *testing.T) {
	if err := CheckKernelFloors(RunKernelBenchmarks(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckKernelRegression(t *testing.T) {
	ok := KernelEntry{ID: "x", Speedup: 4, AllocRatio: 3, KernelAllocsOp: 2, Identical: true}
	base := []KernelEntry{ok}

	if err := CheckKernelRegression([]KernelEntry{ok}, base, 1.5); err != nil {
		t.Fatalf("identical run should pass: %v", err)
	}
	if err := CheckKernelRegression([]KernelEntry{ok}, nil, 1.5); err == nil {
		t.Error("empty baseline should fail")
	}
	if err := CheckKernelRegression(nil, base, 1.5); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing entry should fail, got %v", err)
	}

	slow := ok
	slow.Speedup = 2 // 4/1.5 ≈ 2.67 required
	if err := CheckKernelRegression([]KernelEntry{slow}, base, 1.5); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("speedup regression should fail, got %v", err)
	}
	within := ok
	within.Speedup = 3 // above 4/1.5
	if err := CheckKernelRegression([]KernelEntry{within}, base, 1.5); err != nil {
		t.Errorf("speedup within tolerance should pass: %v", err)
	}

	diverged := ok
	diverged.Identical = false
	if err := CheckKernelRegression([]KernelEntry{diverged}, base, 1.5); err == nil || !strings.Contains(err.Error(), "identical") {
		t.Errorf("identity break should fail, got %v", err)
	}

	leaky := ok
	leaky.KernelAllocsOp = 10 // baseline 2*1.5+2 = 5 allowed
	if err := CheckKernelRegression([]KernelEntry{leaky}, base, 1.5); err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("alloc growth should fail, got %v", err)
	}

	// Hard floors bind even when the baseline is worse: an entry with a
	// floor of 2.0x cannot pass at 1.5x no matter what the file says.
	// The allocation floors bind in CheckKernelFloors as well.
	floored := KernelEntry{ID: "ngg-compare-both", Speedup: 1.5, AllocRatio: 5, Identical: true}
	weakBase := []KernelEntry{{ID: "ngg-compare-both", Speedup: 1.0, AllocRatio: 5, Identical: true}}
	if err := CheckKernelRegression([]KernelEntry{floored}, weakBase, 1.5); err == nil || !strings.Contains(err.Error(), "floor") {
		t.Errorf("floor violation should fail, got %v", err)
	}
	light := KernelEntry{ID: "ngg-compare-both", Speedup: 3, AllocRatio: 1.5, Identical: true}
	if err := CheckKernelFloors([]KernelEntry{light}); err == nil || !strings.Contains(err.Error(), "alloc ratio") {
		t.Errorf("alloc floor violation should fail CheckKernelFloors, got %v", err)
	}
	if err := CheckKernelFloors([]KernelEntry{floored, diverged}); err == nil || !strings.Contains(err.Error(), "identical") {
		t.Errorf("identity break should fail CheckKernelFloors, got %v", err)
	}
	if err := CheckKernelFloors([]KernelEntry{floored, ok}); err != nil {
		t.Errorf("a speedup below its floor is no deterministic failure: %v", err)
	}
}
