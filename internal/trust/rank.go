package trust

import (
	"fmt"
	"math"

	"pharmaverify/internal/parallel"
)

// Config parameterizes the rank computations.
//
// Sentinel semantics: the zero value of Damping, MaxIterations and Tol
// means "use the default" — an *explicit* zero is not expressible for
// these fields (zero damping would be pure teleport, zero tolerance
// would disable the convergence check; neither is a configuration the
// pipeline uses). Negative values are rejected with a panic rather
// than silently misbehaving: a negative Tol can never be reached, so
// it would previously burn every MaxIterations iteration on every
// refresh without any indication of the misconfiguration.
type Config struct {
	// Damping is the decay factor α in [0, 1) (default 0.85 when 0).
	Damping float64
	// MaxIterations bounds the power iteration (default 100 when 0).
	MaxIterations int
	// Tol is the L1 convergence threshold (default 1e-9 when 0).
	Tol float64
	// Workers bounds the concurrency of the power iteration
	// (0 = process default via PHARMAVERIFY_WORKERS/GOMAXPROCS,
	// 1 = serial). Scores are bit-identical at every worker count: every
	// worker count runs the same gather kernel, which reproduces the
	// serial accumulation order exactly (see rankCSR).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Damping < 0 || c.Damping >= 1 {
		panic(fmt.Sprintf("trust: Damping %v out of range [0, 1) (0 selects the 0.85 default)", c.Damping))
	}
	if c.MaxIterations < 0 {
		panic(fmt.Sprintf("trust: negative MaxIterations %d (0 selects the default 100)", c.MaxIterations))
	}
	if c.Tol < 0 {
		panic(fmt.Sprintf("trust: negative Tol %v can never converge (0 selects the default 1e-9)", c.Tol))
	}
	if c.Damping == 0 {
		c.Damping = 0.85
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 100
	}
	if c.Tol == 0 {
		c.Tol = 1e-9
	}
	return c
}

// PageRank computes the standard PageRank of every node (uniform
// teleport vector) — the unseeded baseline.
func PageRank(g *Graph, cfg Config) []float64 {
	n := g.Len()
	bias := make([]float64, n)
	for i := range bias {
		bias[i] = 1 / float64(n)
	}
	return biasedRank(g, bias, cfg)
}

// TrustRank computes trust scores by propagating from a seed of known
// pages (Gyöngyi et al.). seeds maps node names to their oracle values;
// in the paper's initialization legitimate pharmacies in P0 get 1 and
// everything else 0. Scores are normalized so the maximum is 1 (the
// relative ordering is what the classifier consumes).
func TrustRank(g *Graph, seeds map[string]float64, cfg Config) []float64 {
	bias := make([]float64, g.Len())
	for id := range bias {
		bias[id] = seeds[g.Name(id)]
	}
	trustBias(bias)
	r := biasedRank(g, bias, cfg)
	normalizeMax(r)
	return r
}

// trustBias turns per-node seed values (0 for unseeded nodes) into
// TrustRank's teleport vector in place: positive seeds normalized to
// sum to 1, everything else 0, or uniform when no seed is positive.
func trustBias(bias []float64) {
	var total float64
	// Accumulate the normalizer in ascending node-id order, not seed-map
	// order: float sums over Go's randomized map iteration made scores
	// differ between runs whenever seed values were not exactly
	// representable sums (integer-valued seeds masked the bug).
	for i, v := range bias {
		if v > 0 {
			total += v
		} else {
			bias[i] = 0
		}
	}
	if total == 0 {
		// No usable seed: fall back to uniform (PageRank).
		for i := range bias {
			bias[i] = 1 / float64(len(bias))
		}
		return
	}
	for i := range bias {
		bias[i] /= total
	}
}

// AntiTrustRank propagates *distrust* from known-bad seeds along
// reversed edges (Krishnan & Raj): pages that link to distrusted pages
// become distrusted. Higher scores mean less trustworthy.
func AntiTrustRank(g *Graph, badSeeds map[string]float64, cfg Config) []float64 {
	return TrustRank(g.Reverse(), badSeeds, cfg)
}

// minParallelNodes gates the parallel power iteration: below this node
// count the fan-out overhead of parallel.ForGrain outweighs the win and
// the kernel runs on one goroutine. Both ways run the same gather
// kernel and are bit-identical, so the gate is purely a performance
// choice, set from BenchmarkRankGate (rank_bench_test.go) — the kernel
// alone on symmetrized hub-skewed graphs of about six directed edges
// per node, the serving graph's density. On a 2-vCPU Intel Xeon VM
// (go1.24, GOMAXPROCS 2), per 100-iteration run, one worker against
// two: 2048 nodes 1.60–1.84 ms vs 1.87–2.24 ms; 4096 nodes 3.93–4.19 ms
// vs 2.84–4.18 ms; 8192 nodes 7.7–9.2 ms vs 5.3–5.8 ms; 16384 nodes
// 16.2–16.8 ms vs 10.1–11.2 ms. Serving graphs (1.5k–3k nodes) stay
// serial; two workers win clearly from 8192 nodes on.
const minParallelNodes = 8192

// rankGrain is the contiguous node range handed to one worker per
// dispatch in the parallel phases; ~512 nodes amortize the goroutine
// handoff against the few-nanosecond per-node work.
const rankGrain = 512

// csr is the rank kernel's graph layout: an in-edge compressed sparse
// row. The sources of node v's in-edges are src[start[v]:start[v+1]],
// in ascending source order, one entry per edge (parallel edges
// repeat); outDeg[u] is u's out-degree.
//
// Ascending source order is what makes the gather kernel exact: the
// scatter formulation (biasedRankSerial) visits sources u in ascending
// order and adds rank[u]/outDeg[u] into every destination it links to,
// so the additions landing on any one destination arrive in ascending
// source order — the order the gather replays.
type csr struct {
	start  []int32
	src    []int32
	outDeg []int32
}

// resize returns s with length n, reusing its backing array when large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// transpose fills c with the in-edge layout of the graph whose
// out-lists are out: a counting pass, prefix offsets, then a fill pass
// scanning sources in ascending order, so every source list comes out
// ascending. c's buffers are reused.
func (c *csr) transpose(out [][]int32) {
	n := len(out)
	c.outDeg = resize(c.outDeg, n)
	c.start = resize(c.start, n+1)
	clear(c.start)
	edges := 0
	for u, vs := range out {
		c.outDeg[u] = int32(len(vs))
		edges += len(vs)
		for _, v := range vs {
			c.start[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		c.start[v+1] += c.start[v]
	}
	c.src = resize(c.src, edges)
	fill := c.start[:n] // advanced to each list's end, then restored
	for u, vs := range out {
		for _, v := range vs {
			c.src[fill[v]] = int32(u)
			fill[v]++
		}
	}
	copy(c.start[1:], fill)
	c.start[0] = 0
}

// symmetrize fills c with the in-edge layout of the graph Undirected
// would build from out (every edge u→v also as v→u), given d, the
// in-edge layout of out itself. It never materializes the symmetrized
// out-lists: the symmetrized in-list of v holds v's out-neighbours and
// in-neighbours, and scanning sources u in ascending order — pushing u
// into the list of each out-neighbour and each in-neighbour of u —
// fills every list in ascending order. A self-loop lands twice, as in
// Undirected. c's buffers are reused.
func (c *csr) symmetrize(out [][]int32, d *csr) {
	n := len(out)
	c.outDeg = resize(c.outDeg, n)
	c.start = resize(c.start, n+1)
	c.start[0] = 0
	for v := 0; v < n; v++ {
		deg := int32(len(out[v])) + d.start[v+1] - d.start[v]
		c.outDeg[v] = deg
		c.start[v+1] = c.start[v] + deg
	}
	c.src = resize(c.src, int(c.start[n]))
	fill := c.start[:n]
	for u := 0; u < n; u++ {
		for _, v := range out[u] {
			c.src[fill[v]] = int32(u)
			fill[v]++
		}
		for _, v := range d.src[d.start[u]:d.start[u+1]] {
			c.src[fill[v]] = int32(u)
			fill[v]++
		}
	}
	copy(c.start[1:], fill)
	c.start[0] = 0
}

// biasedRank runs personalized PageRank over g with the given teleport
// vector.
func biasedRank(g *Graph, bias []float64, cfg Config) []float64 {
	var c csr
	c.transpose(g.out)
	return rankCSR(&c, bias, cfg, &rankBufs{})
}

// rankCSR runs personalized PageRank with the given teleport vector
// over an in-edge layout. Dangling mass is redistributed to the bias
// vector. One gather kernel serves every worker count: with cfg.Workers
// resolving above 1 on a graph of at least minParallelNodes, node
// ranges are gathered concurrently, otherwise in one call over all
// nodes. Each destination's sum is private to it and accumulates its
// sources in ascending order, and the only cross-node sums (dangling
// mass, the L1 delta) run serially in ascending node order, so scores
// are bit-identical to biasedRankSerial at every worker count.
//
// The scores are returned in one of bufs' slices, valid until bufs is
// used again.
func rankCSR(c *csr, bias []float64, cfg Config, bufs *rankBufs) []float64 {
	cfg = cfg.withDefaults()
	workers := parallel.Workers(cfg.Workers)
	if len(c.outDeg) < minParallelNodes {
		workers = 1
	}
	return rankCSRWorkers(c, bias, cfg, workers, bufs)
}

// rankBufs is the power iteration's working memory; a caller that ranks
// repeatedly keeps one to reuse it. Every slot the kernel reads is
// written first, so stale contents never matter.
type rankBufs struct {
	rank, next, share, nextShare, diff []float64
	dangling                           []int32
}

// rankCSRWorkers is rankCSR at a resolved worker count (cfg already
// defaulted): the gather kernel over node ranges on up to workers
// goroutines, or one call over every node when workers is 1.
func rankCSRWorkers(c *csr, bias []float64, cfg Config, workers int, bufs *rankBufs) []float64 {
	n := len(c.outDeg)
	if n == 0 {
		return nil
	}
	dangling := bufs.dangling[:0]
	for u, d := range c.outDeg {
		if d == 0 {
			dangling = append(dangling, int32(u))
		}
	}
	bufs.dangling = dangling
	bufs.rank, bufs.next = resize(bufs.rank, n), resize(bufs.next, n)
	bufs.share, bufs.nextShare = resize(bufs.share, n), resize(bufs.nextShare, n)
	bufs.diff = resize(bufs.diff, n)
	rank, next, share, nextShare, diff := bufs.rank, bufs.next, bufs.share, bufs.nextShare, bufs.diff
	copy(rank, bias)
	for u, d := range c.outDeg {
		if d > 0 {
			share[u] = rank[u] / float64(d)
		}
	}
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		var mass float64
		for _, u := range dangling {
			mass += rank[u]
		}
		k := gatherStep{c: c, bias: bias, rank: rank, share: share, next: next, nextShare: nextShare, diff: diff, damping: cfg.Damping, dangling: mass}
		if workers > 1 {
			parallel.ForGrain(n, workers, rankGrain, k.run)
		} else {
			k.run(0, n)
		}
		rank, next = next, rank
		share, nextShare = nextShare, share
		// L1 delta in ascending node order — the serial summation order.
		var delta float64
		for _, d := range diff {
			delta += d
		}
		if delta < cfg.Tol {
			break
		}
	}
	return rank
}

// gatherStep is one power iteration over a node range: every
// destination gathers its sources' shares, mixes in teleport and
// dangling mass, and records its new rank, its new share for the next
// iteration (the division the scatter loop performs once per source)
// and its L1 change. A range reads only rank, share and bias and writes
// only its own slots of next, nextShare and diff, so ranges are free of
// cross-talk at any grain or worker count.
type gatherStep struct {
	c                     *csr
	bias, rank, share     []float64
	next, nextShare, diff []float64
	damping, dangling     float64
}

func (k *gatherStep) run(lo, hi int) {
	start, src, outDeg := k.c.start, k.c.src, k.c.outDeg
	bias, rank, share := k.bias, k.rank, k.share
	next, nextShare, diff := k.next, k.nextShare, k.diff
	damping, dangling := k.damping, k.dangling
	for v := lo; v < hi; v++ {
		var acc float64
		for _, u := range src[start[v]:start[v+1]] {
			acc += share[u]
		}
		nv := (1-damping)*bias[v] + damping*(acc+dangling*bias[v])
		diff[v] = math.Abs(nv - rank[v])
		next[v] = nv
		if d := outDeg[v]; d > 0 {
			nextShare[v] = nv / float64(d)
		}
	}
}

func normalizeMax(r []float64) {
	var m float64
	for _, v := range r {
		if v > m {
			m = v
		}
	}
	if m > 0 {
		for i := range r {
			r[i] /= m
		}
	}
}

// Scores is a convenience wrapper pairing a graph with computed node
// scores for name-based lookup.
type Scores struct {
	g *Graph
	v []float64
}

// NewScores bundles a graph and a score vector.
func NewScores(g *Graph, v []float64) Scores { return Scores{g: g, v: v} }

// Of returns the score of a domain (0 when the domain is not a node).
func (s Scores) Of(domain string) float64 {
	id := s.g.ID(domain)
	if id < 0 {
		return 0
	}
	return s.v[id]
}
