package trust

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// offlineScores is the construction Ranker must reproduce: base
// outbound with the live graph's sources replacing or adding entries,
// built by BuildGraph, symmetrized unless directed, ranked by TrustRank.
func offlineScores(base map[string][]string, live *LiveGraph, seeds map[string]float64, directed bool, cfg Config) (*Graph, []float64) {
	liveOut, _ := live.SnapshotOutbound()
	merged := make(map[string][]string, len(base)+len(liveOut))
	for d, eps := range base {
		merged[d] = eps
	}
	for d, eps := range liveOut {
		merged[d] = eps
	}
	built := BuildGraph(merged)
	g := built
	if !directed {
		g = built.Undirected()
	}
	return built, TrustRank(g, seeds, cfg)
}

// checkRanked compares a Ranked with the offline construction: the same
// node and edge counts, every node's score bit-equal, and Score knowing
// exactly the graph's nodes among probe names.
func checkRanked(t *testing.T, step string, got *Ranked, built *Graph, want []float64, probes []string) {
	t.Helper()
	if got.Nodes != built.Len() || got.Edges != built.Edges() {
		t.Fatalf("%s: ranked %d nodes %d edges, BuildGraph %d/%d", step, got.Nodes, got.Edges, built.Len(), built.Edges())
	}
	for id := 0; id < built.Len(); id++ {
		s, ok := got.Score(built.Name(id))
		if !ok || math.Float64bits(s) != math.Float64bits(want[id]) {
			t.Fatalf("%s: %s scored %v (known %v), offline %v", step, built.Name(id), s, ok, want[id])
		}
	}
	for _, name := range probes {
		if _, ok := got.Score(name); ok != (built.ID(name) >= 0) {
			t.Fatalf("%s: Score(%q) known=%v, but node present=%v", step, name, ok, built.ID(name) >= 0)
		}
	}
}

// TestRankerMatchesOfflineConstruction grows a live graph over a random
// base through random folds — new sources, re-folds replacing base and
// live sources, base endpoints becoming sources, empty folds, names
// dropped by the node bound, seeds naming no base node — and after
// every fold checks the ranker against the offline construction, in
// both the symmetrized and the directed form.
func TestRankerMatchesOfflineConstruction(t *testing.T) {
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(46))
		for trial := 0; trial < 12; trial++ {
			pool := 10 + rng.Intn(40)
			name := func() string { return "d" + itoa(rng.Intn(pool)) + ".com" }
			base := map[string][]string{}
			for i := 0; i < rng.Intn(pool); i++ {
				var eps []string
				for j := 0; j < rng.Intn(6); j++ {
					eps = append(eps, name()) // repeats and self links kept
				}
				base[name()] = eps
			}
			seeds := map[string]float64{}
			for i := 0; i < rng.Intn(5); i++ {
				seeds[name()] = 0.25 + rng.Float64() // may name no base node
			}
			cfg := Config{}
			live := NewLiveGraph(LiveConfig{MaxNodes: 5 + rng.Intn(pool), MaxOutPerDomain: 1 + rng.Intn(5)})
			r := NewRanker(NewBase(base, seeds), live, directed, cfg)
			probes := []string{"absent.example"}
			for i := 0; i < pool; i++ {
				probes = append(probes, "d"+itoa(i)+".com")
			}
			for fold := 0; fold < 25; fold++ {
				var eps []string
				for j := 0; j < rng.Intn(7); j++ {
					eps = append(eps, name())
				}
				live.Fold(name(), eps)
				built, want := offlineScores(base, live, seeds, directed, cfg)
				got := r.Rank()
				if got.Version != live.Version() {
					t.Fatalf("ranked version %d, live %d", got.Version, live.Version())
				}
				checkRanked(t, fmt.Sprintf("directed=%v trial %d fold %d", directed, trial, fold), got, built, want, probes)
			}
		}
	}
}

// A Ranked result stays valid while the live graph keeps growing: later
// folds neither change its scores nor make it claim names it never
// ranked.
func TestRankedIsImmutable(t *testing.T) {
	live := NewLiveGraph(LiveConfig{})
	base := map[string][]string{"a.com": {"hub.org"}, "b.com": {"hub.org", "x.org"}}
	seeds := map[string]float64{"a.com": 1}
	r := NewRanker(NewBase(base, seeds), live, false, Config{})
	live.Fold("c.com", []string{"hub.org"})
	first := r.Rank()
	built, want := offlineScores(base, live, seeds, false, Config{})
	live.Fold("d.com", []string{"c.com", "y.org"})
	live.Fold("a.com", []string{"z.org"})
	r.Rank()
	checkRanked(t, "after later folds", first, built, want, []string{"d.com", "y.org", "z.org"})
}

// TestRankerScoresLinklessDomains: BuildGraph makes every key of its
// map a node, so a crawled domain with no outbound links — new, an
// endpoint until now, or a base source that lost its links — is a node
// the ranker must score like the offline construction, and each such
// fold changes the graph's version.
func TestRankerScoresLinklessDomains(t *testing.T) {
	base := map[string][]string{"a.com": {"hub.org"}, "b.com": {"hub.org", "x.org"}}
	seeds := map[string]float64{"a.com": 1}
	for _, directed := range []bool{false, true} {
		live := NewLiveGraph(LiveConfig{})
		r := NewRanker(NewBase(base, seeds), live, directed, Config{})
		merged := maps.Clone(base)
		for i, fold := range []string{"lone.com", "c.com x.org end.org", "end.org", "b.com"} {
			f := strings.Fields(fold)
			live.Fold(f[0], f[1:])
			if v := live.Version(); v != uint64(i+1) {
				t.Fatalf("fold of %s left version %d, want %d", f[0], v, i+1)
			}
			merged[f[0]] = f[1:]
			built := BuildGraph(merged)
			g := built
			if !directed {
				g = built.Undirected()
			}
			step := fmt.Sprintf("directed=%v after folding %s", directed, f[0])
			checkRanked(t, step, r.Rank(), built, TrustRank(g, seeds, Config{}), []string{"lone.com", "end.org"})
		}
	}
}

// TestRankerRankAllocations folds one new domain before each of many
// Rank calls, as serving does on a cold request, and bounds the bytes
// a call allocates beyond its result (the node map and the scores).
// The working buffers follow a graph that grows a few nodes per call;
// with exact regrowth every call would reallocate each of them, about
// 150 bytes per node, so the bound pins their amortized growth.
func TestRankerRankAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := map[string][]string{}
	for i := 0; i < 400; i++ {
		eps := []string{"hub" + fmt.Sprint(i%3)}
		for k := 0; k < 5; k++ {
			eps = append(eps, fmt.Sprintf("e%d.com", rng.Intn(800)))
		}
		base[fmt.Sprintf("p%d.com", i)] = eps
	}
	r := NewRanker(NewBase(base, map[string]float64{"p1.com": 1, "p7.com": 1}), NewLiveGraph(LiveConfig{}), false, Config{})
	fold := func(i int) {
		eps := []string{fmt.Sprintf("new%d.com", i), fmt.Sprintf("new%d.org", i), "hub0"}
		for k := 0; k < 3; k++ {
			eps = append(eps, fmt.Sprintf("e%d.com", rng.Intn(800)))
		}
		r.live.Fold(fmt.Sprintf("cold%d.com", i), eps)
	}
	for i := 0; i < 20; i++ { // warm up past the first, exact allocations
		fold(i)
		r.Rank()
	}
	const calls = 300
	var before, after runtime.MemStats
	var extra float64
	for i := 20; i < 20+calls; i++ {
		fold(i)
		runtime.ReadMemStats(&before)
		got := r.Rank()
		runtime.ReadMemStats(&after)
		result := 4*len(got.node) + 8*len(got.scores)
		extra += float64(after.TotalAlloc-before.TotalAlloc) - float64(result)
	}
	nodes := r.Rank().Nodes
	if perCall := extra / calls; perCall > 4*float64(nodes) {
		t.Fatalf("Rank allocates %.0f bytes per call beyond its result on a graph of %d nodes; want at most %d", perCall, nodes, 4*nodes)
	}
}
