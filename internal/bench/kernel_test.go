package bench

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// TestKernelBenchmarksIdentity runs the micro-benchmarks at a short
// benchtime and checks the invariants the regression gate relies on:
// every entry byte-identical to its naive reference, and non-degenerate
// measurements. TestKernelFloorsCoverEveryEntry pins the entry set.
func TestKernelBenchmarksIdentity(t *testing.T) {
	for _, e := range RunKernelBenchmarks(5 * time.Millisecond) {
		if !e.Identical {
			t.Errorf("kernel %s: output differs from the naive reference", e.ID)
		}
		if e.NaiveNSOp <= 0 || e.KernelNSOp <= 0 || e.Speedup <= 0 {
			t.Errorf("kernel %s: degenerate timing naive=%v kernel=%v speedup=%v", e.ID, e.NaiveNSOp, e.KernelNSOp, e.Speedup)
		}
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

// passingRun fabricates a run of every entry exactly at its bars.
func passingRun() []KernelEntry {
	var run []KernelEntry
	for id, fl := range kernelFloors {
		run = append(run, KernelEntry{ID: id, Speedup: fl.speedup, AllocRatio: fl.allocRatio, KernelAllocsOp: fl.allocsOp, Identical: true})
	}
	return run
}

// checkGateFailures breaks each listed entry of an otherwise passing
// run in every way the gate must catch, and checks each break fails
// CheckKernelRegression with the expected message.
func checkGateFailures(t *testing.T, ids ...string) {
	t.Helper()
	if err := CheckKernelRegression(passingRun()); err != nil {
		t.Fatalf("a run at the bars should pass: %v", err)
	}
	breaks := []struct {
		name, want string
		apply      func(run []KernelEntry, i int) []KernelEntry
	}{
		{"slow", "below the", func(run []KernelEntry, i int) []KernelEntry { run[i].Speedup -= 0.01; return run }},
		{"leaky", "allocs/op", func(run []KernelEntry, i int) []KernelEntry { run[i].KernelAllocsOp += 0.01; return run }},
		{"diverged", "identical", func(run []KernelEntry, i int) []KernelEntry { run[i].Identical = false; return run }},
		{"missing", "missing", func(run []KernelEntry, i int) []KernelEntry { return append(run[:i], run[i+1:]...) }},
		{"unlisted", "no row", func(run []KernelEntry, i int) []KernelEntry { run[i].ID += "-v2"; return run }},
	}
	for _, id := range ids {
		for _, b := range breaks {
			run := passingRun()
			i := slices.IndexFunc(run, func(e KernelEntry) bool { return e.ID == id })
			if i < 0 {
				t.Fatalf("%s has no row in kernelFloors", id)
			}
			if err := CheckKernelRegression(b.apply(run, i)); err == nil || !strings.Contains(err.Error(), b.want) {
				t.Errorf("%s %s: got %v, want an error containing %q", b.name, id, err, b.want)
			}
		}
	}
}

func TestCheckKernelRegression(t *testing.T) {
	checkGateFailures(t, "ngg-compare-both", "ngg-compare-graphs", "tfidf-sparse")

	// The allocation-ratio floors bind in CheckKernelFloors, which does
	// not time anything.
	light := KernelEntry{ID: "ngg-compare-both", Speedup: 3, AllocRatio: 1.5, Identical: true}
	if err := CheckKernelFloors([]KernelEntry{light}); err == nil || !strings.Contains(err.Error(), "alloc ratio") {
		t.Errorf("alloc floor violation should fail CheckKernelFloors, got %v", err)
	}
	slow := KernelEntry{ID: "ngg-compare-both", Speedup: 1, AllocRatio: 5, Identical: true}
	if err := CheckKernelFloors([]KernelEntry{slow}); err != nil {
		t.Errorf("a speedup below its floor is no deterministic failure: %v", err)
	}
}

// TestKernelFloorsCoverEveryEntry: every entry the benchmarks emit has
// a complete row (a speedup bar, an allocs/op ceiling, and an
// allocation-ratio floor wherever the naive path allocates), and
// kernelFloors has no row for an entry nothing emits.
func TestKernelFloorsCoverEveryEntry(t *testing.T) {
	emitted := map[string]bool{}
	for _, e := range append(RunKernelBenchmarks(time.Millisecond), RunTrainingBenchmarks(time.Millisecond)...) {
		emitted[e.ID] = true
		fl, ok := kernelFloors[e.ID]
		switch {
		case !ok:
			t.Errorf("%s has no row in kernelFloors", e.ID)
		case fl.speedup <= 0 || fl.allocsOp <= 0:
			t.Errorf("%s: incomplete row %+v", e.ID, fl)
		case e.NaiveAllocsOp >= 1 && fl.allocRatio <= 0:
			t.Errorf("%s: the naive path allocates %.1f times per op but the row has no alloc-ratio floor", e.ID, e.NaiveAllocsOp)
		}
	}
	for id := range kernelFloors {
		if !emitted[id] {
			t.Errorf("kernelFloors has a row for %s, which no benchmark emits", id)
		}
	}
}
