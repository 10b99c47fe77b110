package trust

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// laneCase is one graph shape the lane kernel must rank exactly.
type laneCase struct {
	name string
	g    *Graph
}

// laneCases lists the shapes that stress the lane layout: every node
// count from 1 to 7 and each residue of n mod 4 further up, nodes with
// no in-edges, all-equal in-degrees (every group unpadded but the
// last), one giant hub, and parallel edges with self links.
func laneCases(rng *rand.Rand) []laneCase {
	named := func(n int) (*Graph, []string) {
		g := NewGraph()
		names := make([]string, n)
		for i := range names {
			names[i] = "n" + itoa(i)
			g.Node(names[i])
		}
		return g, names
	}
	var cases []laneCase
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 40, 41, 42, 43} {
		cases = append(cases, laneCase{"random/n=" + itoa(n), bigRandomGraph(rng, n, rng.Intn(4*n+1))})
	}
	{ // Half the nodes only link out; the other half are their targets.
		g, names := named(23)
		for i := 0; i < 12; i++ {
			g.AddEdge(names[i], names[12+rng.Intn(11)])
		}
		cases = append(cases, laneCase{"zero-in-degree", g})
	}
	{ // Every node links to the next three: in-degree 3 everywhere.
		g, names := named(30)
		for i := range names {
			for k := 1; k <= 3; k++ {
				g.AddEdge(names[i], names[(i+k)%len(names)])
			}
		}
		cases = append(cases, laneCase{"equal-degrees", g})
	}
	{ // Every node links to node 0, a few also elsewhere.
		g, names := named(61)
		for i := range names {
			g.AddEdge(names[i], names[0])
			if i%7 == 0 {
				g.AddEdge(names[i], names[rng.Intn(len(names))])
			}
		}
		cases = append(cases, laneCase{"giant-hub", g.Undirected()})
	}
	{ // Repeated edges and self links, kept as BuildGraph keeps them.
		g, names := named(9)
		for i := range names {
			g.AddEdge(names[i], names[i])
			for r := 0; r <= i%3; r++ {
				g.AddEdge(names[i], names[(i*5+1)%len(names)])
			}
		}
		cases = append(cases, laneCase{"parallel-and-self", g})
	}
	return cases
}

// Property: the four-lane gather kernel reproduces the scatter
// reference bit for bit, whatever the graph's shape, damping or worker
// count, and leaves the pad slot's shares at +0.
func TestLaneKernelMatchesScatterReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, tc := range laneCases(rng) {
		n := tc.g.Len()
		bias := make([]float64, n)
		for i := range bias {
			if rng.Intn(3) == 0 {
				bias[i] = 0.5 + rng.Float64()
			}
		}
		trustBias(bias)
		var c csr
		c.transpose(tc.g.out)
		for _, cfg := range []Config{{}, {Damping: 0.5, Tol: 1e-4}, {Damping: 0.99, MaxIterations: 9}} {
			cfg = cfg.withDefaults()
			want := biasedRankSerial(tc.g, bias, cfg)
			for _, w := range []int{1, 2, 8} {
				var bufs rankBufs
				got := rankCSRWorkers(&c, bias, cfg, w, &bufs)
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("%s damping %v workers=%d: node %d = %x, reference %x",
						tc.name, cfg.Damping, w, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
				if math.Float64bits(bufs.share[n]) != 0 || math.Float64bits(bufs.nextShare[n]) != 0 {
					t.Fatalf("%s workers=%d: pad slot shares %v, %v, want +0", tc.name, w, bufs.share[n], bufs.nextShare[n])
				}
			}
		}
	}
}

// The layout itself: slots run in descending in-degree, ties by id;
// every group starts with its longest list; and reading a slot's lane
// back, without the padding, gives the node's in-list in source order.
func TestLanesLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, tc := range laneCases(rng) {
		var c csr
		c.transpose(tc.g.out)
		var l lanes
		l.build(&c)
		n := tc.g.Len()
		inDeg := func(v int32) int32 { return c.start[v+1] - c.start[v] }
		for s := 1; s < n; s++ {
			a, b := l.node[s-1], l.node[s]
			if inDeg(a) < inDeg(b) || inDeg(a) == inDeg(b) && a > b {
				t.Fatalf("%s: slot %d holds node %d after node %d", tc.name, s, b, a)
			}
		}
		for s := 0; s < len(l.deg); s++ {
			g, lane := s/4, s%4
			if g >= len(l.off)-1 {
				break
			}
			var got []int32
			for r := int(l.off[g]) + lane; r < int(l.off[g+1]); r += 4 {
				if src := l.src[r]; int(src) != n {
					got = append(got, l.node[src])
				}
			}
			var want []int32
			if s < n {
				v := l.node[s]
				if l.slot[v] != int32(s) {
					t.Fatalf("%s: slot %d holds node %d, whose slot is %d", tc.name, s, v, l.slot[v])
				}
				want = c.src[c.start[v]:c.start[v+1]]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: slot %d reads back %v, in-list %v", tc.name, s, got, want)
			}
		}
	}
}

// l1Below must agree with the exact ascending-order sum, also for sums
// within a rounding of tol, where its screen must not decide.
func TestL1BelowMatchesExactSum(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		diff := make([]float64, n+rng.Intn(4))
		for i := range diff {
			diff[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(9)-12))
		}
		slot := rng.Perm(n)
		s32 := make([]int32, n)
		var exact float64
		for v, s := range slot {
			s32[v] = int32(s)
			exact += diff[s]
		}
		for _, tol := range []float64{exact, math.Nextafter(exact, 0), math.Nextafter(exact, 1), exact / 2, exact * 2, exact * 3} {
			if got := l1Below(diff, s32, tol); got != (exact < tol) {
				t.Fatalf("trial %d: l1Below(tol %v) = %v, exact sum %v", trial, tol, got, exact)
			}
		}
	}
}
