package trust

import (
	"fmt"
	"sync"
	"testing"
)

func TestLiveGraphFoldReplacesAndVersions(t *testing.T) {
	g := NewLiveGraph(LiveConfig{})

	if !g.Fold("a.com", []string{"b.com", "c.com", "b.com", "a.com"}) {
		t.Fatal("first fold not admitted")
	}
	st := g.Stats()
	if st.Folds != 1 || st.Version != 1 {
		t.Fatalf("after first fold: %+v, want Folds=1 Version=1", st)
	}
	// Self-links and duplicates are dropped: a.com → {b.com, c.com}.
	if st.Nodes != 3 || st.Edges != 2 {
		t.Fatalf("after first fold: %d nodes %d edges, want 3/2", st.Nodes, st.Edges)
	}

	// Re-observing the identical endpoint set is free: no version bump.
	g.Fold("a.com", []string{"b.com", "c.com"})
	if st = g.Stats(); st.Version != 1 {
		t.Fatalf("identical refold bumped version: %+v", st)
	}

	// A changed endpoint set replaces the old one (freshest crawl wins).
	g.Fold("a.com", []string{"d.com"})
	st = g.Stats()
	if st.Version != 2 || st.Edges != 1 {
		t.Fatalf("replacing refold: %+v, want Version=2 Edges=1", st)
	}
	out, version := g.SnapshotOutbound()
	if version != 2 || len(out["a.com"]) != 1 || out["a.com"][0] != "d.com" {
		t.Fatalf("snapshot = %v (version %d), want a.com → [d.com] at version 2", out, version)
	}
	// b.com and c.com stay admitted as names even after the edge went.
	if !g.Contains("b.com") || !g.Contains("c.com") {
		t.Error("endpoint names evicted by a refold")
	}
}

func TestLiveGraphNodeBudget(t *testing.T) {
	g := NewLiveGraph(LiveConfig{MaxNodes: 3})

	if !g.Fold("a.com", []string{"b.com", "c.com", "d.com"}) {
		t.Fatal("source domain not admitted under budget")
	}
	st := g.Stats()
	// a, b, c admitted; d rejected by the bound.
	if st.Nodes != 3 || st.DroppedNames != 1 {
		t.Fatalf("stats %+v, want Nodes=3 DroppedNames=1", st)
	}
	if g.Contains("d.com") {
		t.Error("d.com admitted past the node budget")
	}

	// A never-seen source domain is rejected once the budget is gone…
	if g.Fold("e.com", []string{"a.com"}) {
		t.Error("new domain admitted past an exhausted node budget")
	}
	// …but an already-admitted domain keeps refining its edges.
	if !g.Fold("b.com", []string{"a.com", "c.com"}) {
		t.Error("admitted domain rejected on refold")
	}
	if st = g.Stats(); st.Edges != 4 {
		t.Errorf("edges = %d, want 4 (a→{b,c} plus b→{a,c})", st.Edges)
	}
}

func TestLiveGraphEndpointCap(t *testing.T) {
	g := NewLiveGraph(LiveConfig{MaxOutPerDomain: 2})
	eps := make([]string, 5)
	for i := range eps {
		eps[i] = fmt.Sprintf("ep%d.com", i)
	}
	g.Fold("farm.com", eps)
	st := g.Stats()
	if st.Edges != 2 || st.DroppedEndpoints != 3 {
		t.Fatalf("stats %+v, want Edges=2 DroppedEndpoints=3 (link farm capped)", st)
	}
}

func TestLiveGraphSnapshotIsolation(t *testing.T) {
	g := NewLiveGraph(LiveConfig{})
	g.Fold("a.com", []string{"b.com"})
	out, _ := g.SnapshotOutbound()

	// Mutating the snapshot map must not touch the live graph.
	delete(out, "a.com")
	out["x.com"] = []string{"y.com"}
	if fresh, _ := g.SnapshotOutbound(); len(fresh) != 1 || len(fresh["a.com"]) != 1 {
		t.Fatalf("snapshot mutation leaked into the graph: %v", fresh)
	}

	// Folding after the snapshot must not change the endpoint slice the
	// snapshot handed out (replace-on-fold, never mutate-in-place).
	out2, _ := g.SnapshotOutbound()
	held := out2["a.com"]
	g.Fold("a.com", []string{"c.com", "d.com"})
	if len(held) != 1 || held[0] != "b.com" {
		t.Fatalf("snapshot slice mutated by a later fold: %v", held)
	}
}

// TestLiveGraphConcurrentFolds exercises folds, reads and snapshots
// from many goroutines; it exists to run under -race (the serve/trust
// packages are on the CI race leg).
func TestLiveGraphConcurrentFolds(t *testing.T) {
	g := NewLiveGraph(LiveConfig{MaxNodes: 200, MaxOutPerDomain: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := fmt.Sprintf("d%d.com", (w*31+i)%40)
				g.Fold(d, []string{
					fmt.Sprintf("d%d.com", (i+1)%40),
					fmt.Sprintf("d%d.com", (i*7)%40),
				})
				g.Contains(d)
				if i%17 == 0 {
					out, _ := g.SnapshotOutbound()
					for _, eps := range out {
						_ = len(eps)
					}
				}
				_ = g.Version()
				_ = g.Stats()
			}
		}(w)
	}
	wg.Wait()
	st := g.Stats()
	if st.Folds != 8*200 {
		t.Errorf("folds = %d, want %d", st.Folds, 8*200)
	}
	if st.Nodes > 200 {
		t.Errorf("node budget exceeded: %d nodes", st.Nodes)
	}
}
