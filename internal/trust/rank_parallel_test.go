package trust

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bigRandomGraph builds a graph large enough to take the parallel rank
// path, with parallel edges, dangling nodes and hub structure.
func bigRandomGraph(rng *rand.Rand, nodes, edges int) *Graph {
	g := NewGraph()
	names := make([]string, nodes)
	for i := range names {
		names[i] = "n" + itoa(i)
		g.Node(names[i])
	}
	for i := 0; i < edges; i++ {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes)
		if rng.Intn(4) == 0 {
			dst = rng.Intn(1 + nodes/20) // hub bias: heavy in-degree skew
		}
		g.AddEdge(names[src], names[dst])
	}
	return g
}

func bitsEqual(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// Property: TrustRank is bit-identical to the scatter reference at
// every worker count (1 runs the gather kernel in one call, the others
// take the parallel path: every graph here is above the gate), on
// randomized graphs with dangling nodes, parallel edges and hubs.
func TestTrustRankParallelBitIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		n := minParallelNodes + rng.Intn(400)
		g := bigRandomGraph(rng, n, n*3)
		seeds := map[string]float64{}
		for i := 0; i < 1+rng.Intn(8); i++ {
			seeds["n"+itoa(rng.Intn(n))] = 1 + rng.Float64()
		}
		ref := referenceTrustRank(g, seeds, Config{})
		for _, w := range []int{1, 2, 3, 8, 64} {
			got := TrustRank(g, seeds, Config{Workers: w})
			if i, ok := bitsEqual(ref, got); !ok {
				t.Fatalf("trial %d workers=%d: score[%d] = %x, serial %x",
					trial, w, i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
			}
		}
	}
}

// The same bit-identity must hold for the unseeded baseline and the
// reversed-edge variant (their bias vectors and graph shapes differ).
func TestPageRankAndAntiTrustParallelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		n := minParallelNodes + rng.Intn(300)
		g := bigRandomGraph(rng, n, n*2)
		pr := referencePageRank(g, Config{})
		seeds := map[string]float64{"n0": 1, "n3": 1}
		at := referenceTrustRank(g.Reverse(), seeds, Config{})
		for _, w := range []int{1, 7} {
			if i, ok := bitsEqual(pr, PageRank(g, Config{Workers: w})); !ok {
				t.Fatalf("trial %d workers=%d: PageRank diverges at node %d", trial, w, i)
			}
			if i, ok := bitsEqual(at, AntiTrustRank(g, seeds, Config{Workers: w})); !ok {
				t.Fatalf("trial %d workers=%d: AntiTrustRank diverges at node %d", trial, w, i)
			}
		}
	}
}

// Bit-identity must survive non-default damping/tolerance (different
// iteration counts and rounding paths).
func TestTrustRankParallelBitIdentityNonDefaultConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := bigRandomGraph(rng, minParallelNodes+100, (minParallelNodes+100)*4)
	seeds := map[string]float64{"n1": 1}
	for _, cfg := range []Config{
		{Damping: 0.5, Tol: 1e-3},
		{Damping: 0.99, MaxIterations: 7},
		{Tol: 1e-14},
	} {
		ref := referenceTrustRank(g, seeds, cfg)
		for _, w := range []int{1, 6} {
			run := cfg
			run.Workers = w
			if i, ok := bitsEqual(ref, TrustRank(g, seeds, run)); !ok {
				t.Fatalf("cfg %+v: diverges at node %d", run, i)
			}
		}
	}
}

// A graph that is entirely dangling (no edges at all) exercises the
// dangling-mass path alone.
func TestParallelRankAllDangling(t *testing.T) {
	g := NewGraph()
	for i := 0; i < minParallelNodes+50; i++ {
		g.Node("n" + itoa(i))
	}
	ref := referencePageRank(g, Config{})
	for _, w := range []int{1, 4} {
		if i, ok := bitsEqual(ref, PageRank(g, Config{Workers: w})); !ok {
			t.Fatalf("workers=%d: all-dangling graph diverges at node %d", w, i)
		}
	}
}

// The gather kernel itself, below the gate too: at workers 1, 2 and 4
// it must reproduce the scatter reference bit for bit on small
// randomized graphs with self links, parallel edges and dangling
// nodes, for the teleport vectors of TrustRank (seeded), PageRank
// (uniform) and AntiTrustRank (seeded, reversed graph).
func TestGatherKernelMatchesScatterReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		g := bigRandomGraph(rng, n, rng.Intn(4*n+1))
		seeds := map[string]float64{}
		for i := 0; i < rng.Intn(6); i++ {
			seeds["n"+itoa(rng.Intn(n))] = 0.5 + rng.Float64()
		}
		uniform := make([]float64, n)
		for i := range uniform {
			uniform[i] = 1 / float64(n)
		}
		seeded := func(g *Graph) []float64 {
			bias := make([]float64, n)
			for id := range bias {
				bias[id] = seeds[g.Name(id)]
			}
			trustBias(bias)
			return bias
		}
		rev := g.Reverse()
		cases := []struct {
			name string
			g    *Graph
			bias []float64
		}{
			{"TrustRank", g, seeded(g)},
			{"PageRank", g, uniform},
			{"AntiTrustRank", rev, seeded(rev)},
		}
		cfg := Config{}.withDefaults()
		for _, tc := range cases {
			want := biasedRankSerial(tc.g, tc.bias, cfg)
			var c csr
			c.transpose(tc.g.out)
			for _, w := range []int{1, 2, 4} {
				got := rankCSRWorkers(&c, tc.bias, cfg, w, &rankBufs{})
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("trial %d %s workers=%d: node %d = %x, reference %x",
						trial, tc.name, w, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// The symmetrized layout csr.symmetrize fills straight from out-lists
// must be the in-edge layout of Undirected, entry for entry.
func TestSymmetrizeMatchesUndirected(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		g := bigRandomGraph(rng, n, rng.Intn(5*n+1))
		var d, got, want csr
		d.transpose(g.out)
		got.symmetrize(g.out, &d)
		want.transpose(g.Undirected().out)
		if !slices.Equal(got.start, want.start) || !slices.Equal(got.src, want.src) || !slices.Equal(got.outDeg, want.outDeg) {
			t.Fatalf("trial %d: symmetrized layout differs from Undirected's", trial)
		}
	}
}

func TestConfigRejectsNegativeValues(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative damping", Config{Damping: -0.1}},
		{"damping one", Config{Damping: 1}},
		{"damping above one", Config{Damping: 1.5}},
		{"negative iterations", Config{MaxIterations: -1}},
		{"negative tol", Config{Tol: -1e-9}},
	}
	g := NewGraph()
	g.AddEdge("a", "b")
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			PageRank(g, tc.cfg)
		}()
	}
}

func TestConfigZeroSentinelsSelectDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Damping != 0.85 || c.MaxIterations != 100 || c.Tol != 1e-9 {
		t.Fatalf("defaults = %+v", c)
	}
	// Workers has no sentinel rewrite: 0 defers to the process default.
	if c.Workers != 0 {
		t.Fatalf("Workers = %d, want 0 (process default)", c.Workers)
	}
}
