package parallel

import "testing"

func TestPlanGrainFoldLevelWhenFoldsCoverWorkers(t *testing.T) {
	p := PlanGrain(3, 3, 200)
	if p.Level != "fold" || p.FoldWorkers != 3 || p.DocWorkers != 1 {
		t.Fatalf("plan = %v, want fold-level with 3 outer workers", p)
	}
	if p.DocGrain != 200 {
		t.Fatalf("fold-level inner grain = %d, want one maximal chunk (200)", p.DocGrain)
	}
	// Fewer workers than folds: still fold-level, budget respected.
	p = PlanGrain(2, 3, 200)
	if p.Level != "fold" || p.FoldWorkers != 2 {
		t.Fatalf("plan = %v, want fold-level capped at 2 workers", p)
	}
}

func TestPlanGrainDocLevelForSinglePass(t *testing.T) {
	p := PlanGrain(4, 1, 640)
	if p.Level != "doc" || p.DocWorkers != 4 || p.FoldWorkers != 1 {
		t.Fatalf("plan = %v, want doc-level with 4 inner workers", p)
	}
	// 640/(4 chunks × 4 workers) = 40, capped at the 16 ceiling.
	if p.DocGrain != grainCeil {
		t.Fatalf("grain = %d, want the %d ceiling", p.DocGrain, grainCeil)
	}
	// Tiny ranges: grain floors at 1.
	if g := PlanGrain(8, 1, 3).DocGrain; g != 1 {
		t.Fatalf("tiny-range grain = %d, want 1", g)
	}
}

func TestPlanGrainHybridSharesBudget(t *testing.T) {
	p := PlanGrain(8, 3, 300)
	if p.Level != "hybrid" {
		t.Fatalf("plan = %v, want hybrid", p)
	}
	if p.FoldWorkers != 3 || p.DocWorkers != 3 {
		t.Fatalf("plan = %v, want 3 outer × ceil(8/3)=3 inner", p)
	}
	// Total concurrency stays within one fold of the budget.
	if total := p.FoldWorkers * p.DocWorkers; total > 8+3 {
		t.Fatalf("hybrid oversubscribes: %d slots for budget 8", total)
	}
	if p.DocGrain < 1 {
		t.Fatalf("grain = %d, want >= 1", p.DocGrain)
	}
}

func TestPlanGrainForRecordsDecisions(t *testing.T) {
	ResetGrainDecisions()
	PlanGrainFor("test-site", 4, 1, 640)
	got := GrainDecisions()
	want := GrainPlan{Level: "doc", FoldWorkers: 1, DocWorkers: 4, DocGrain: 16}.String()
	if got["test-site"] != want {
		t.Fatalf("recorded %q, want %q", got["test-site"], want)
	}
	if len(got) != 1 {
		t.Fatalf("decisions = %v, want only test-site", got)
	}
	// Re-planning the same site overwrites, not appends.
	PlanGrainFor("test-site", 2, 3, 10)
	if len(GrainDecisions()) != 1 {
		t.Fatal("re-plan duplicated the site")
	}
	ResetGrainDecisions()
	if len(GrainDecisions()) != 0 {
		t.Fatal("reset did not clear decisions")
	}
}

func TestPlanGrainDegenerateInputs(t *testing.T) {
	// Zero/negative folds and docs clamp to 1; workers<=0 resolves to
	// the process default, which is at least 1.
	p := PlanGrain(1, 0, 0)
	if p.DocGrain < 1 || p.FoldWorkers < 1 || p.DocWorkers < 1 {
		t.Fatalf("degenerate plan = %v", p)
	}
}
