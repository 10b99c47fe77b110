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
// count the per-iteration fan-out of parallel.ForGrain outweighs the
// win and the kernel runs on one goroutine. Both ways run the same
// gather kernel and are bit-identical, so the gate is purely a
// performance choice, set from BenchmarkRankGate (rank_bench_test.go):
// one rank call on symmetrized graphs with the serving graph's density
// and hub skew, about 47 iterations to Tol. On a loaded 2-vCPU VM
// (go1.24, GOMAXPROCS 2), one worker against two, fastest–slowest of
// six runs: 2048 nodes 1.47–2.12 ms vs 1.63–2.28 ms; 4096 nodes
// 3.40–4.81 ms vs 4.22–5.95 ms; 8192 nodes 7.02–8.88 ms vs 6.77–8.17
// ms; 16384 nodes 13.7–18.2 ms vs 11.5–14.2 ms; 32768 nodes 32.9–37.4
// ms vs 28.1–34.8 ms. Two runs of forty interleaved calls per size put
// the medians at 4.4–4.5 vs 3.6–3.7 ms (4096), 8.3–9.9 vs 6.5–7.6 ms
// (8192) and 16.8–17.5 vs 12.4–13.5 ms (16384), and the fastest calls
// at 2.5–2.8 vs 3.1 ms, 4.6–5.2 vs 4.8–4.9 ms and 10.3 vs 8.3–8.4 ms.
// Two workers lose at 2048 and on the fastest calls at 4096, are even
// or ahead from 8192 and win clearly from 16384. Serving graphs
// (1.5k–3k nodes) stay serial.
const minParallelNodes = 8192

// rankGrain is the number of lane groups (four nodes each) handed to
// one worker per dispatch in the parallel phase.
const rankGrain = 64

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
// enough. The contents are unspecified. A first allocation is exact;
// regrowing an existing buffer leaves a quarter of headroom, so a
// buffer that follows a slowly growing graph (one more domain per
// refresh) reallocates O(log n) times instead of on every call.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	if cap(s) == 0 {
		return make([]T, n)
	}
	return make([]T, n, n+n/4)
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
// resolving above 1 on a graph of at least minParallelNodes, ranges of
// lane groups are gathered concurrently, otherwise in one call over
// all groups. Each destination's sum is private to it and accumulates
// its sources in ascending order, and the only cross-node sums
// (dangling mass, the L1 delta) are decided serially in ascending node
// order, so scores are bit-identical to biasedRankSerial at every
// worker count (DESIGN §10).
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
// written first, so stale contents never matter. The per-slot buffers
// are indexed by lane slot (see lanes), out by node.
type rankBufs struct {
	lanes                                    lanes
	bias, rank, next, share, nextShare, diff []float64
	out                                      []float64
	dangling                                 []int32
}

// lanes is the gather kernel's layout over an in-edge csr of n nodes.
// Nodes are renumbered into slots by in-degree, descending and stable
// by id, and slots are taken four at a time as a lane group; the last
// group is filled up with dummy slots. A group's four in-lists are
// stored interleaved, row by row: row r holds the slot of the r-th
// source of each of the group's four nodes, or the pad slot n where
// that node's list has ended, so every group has as many rows as its
// first, longest list. Each list keeps its ascending source-id order,
// so every node adds the same shares in the same order as the scatter
// reference; slot order only changes which node is visited when, and
// lets each worker write a contiguous run of slots.
//
// Padding is exact because the pad slot's share is always +0: a lane
// that has run out of sources adds +0 to its accumulator, and
// x + (+0) == x bit for bit for every x but -0. An accumulator starts
// at +0 and a sum is -0 only when both addends are, so it is never -0
// (shares are non-negative anyway: bias, ranks and shares never go
// below +0). Slots from n on have no sources, no bias and no
// out-degree, so they write only their own scratch and never a share.
type lanes struct {
	slot []int32 // slot[v] is node v's slot
	node []int32 // node[s] is slot s's node, for s < n
	off  []int32 // group g's rows are src[off[g]:off[g+1]]
	src  []int32 // interleaved in-lists of source slots, padded with n
	deg  []int32 // out-degree by slot; 0 from slot n on
	cnt  []int32 // counting-sort scratch
}

// build lays out c's in-lists in lanes, reusing l's buffers.
func (l *lanes) build(c *csr) {
	n := len(c.outDeg)
	groups := (n + 3) / 4
	inDeg := func(v int32) int32 { return c.start[v+1] - c.start[v] }
	var maxDeg int32
	for v := int32(0); v < int32(n); v++ {
		maxDeg = max(maxDeg, inDeg(v))
	}
	// Counting sort on maxDeg-inDeg: bucket k holds in-degree maxDeg-k,
	// filled in ascending id order.
	l.cnt = resize(l.cnt, int(maxDeg)+2)
	clear(l.cnt)
	for v := int32(0); v < int32(n); v++ {
		l.cnt[maxDeg-inDeg(v)+1]++
	}
	for k := 1; k < len(l.cnt); k++ {
		l.cnt[k] += l.cnt[k-1]
	}
	l.slot, l.node = resize(l.slot, n), resize(l.node, n)
	for v := int32(0); v < int32(n); v++ {
		k := maxDeg - inDeg(v)
		l.slot[v], l.node[l.cnt[k]] = l.cnt[k], v
		l.cnt[k]++
	}
	// A group's first slot is a node with the group's longest list.
	l.off = resize(l.off, groups+1)
	l.off[0] = 0
	for g := 0; g < groups; g++ {
		l.off[g+1] = l.off[g] + 4*inDeg(l.node[4*g])
	}
	l.src = resize(l.src, int(l.off[groups]))
	l.deg = resize(l.deg, max(4*groups, n+1))
	clear(l.deg[n:])
	for s, v := range l.node {
		l.deg[s] = c.outDeg[v]
	}
	for g := 0; g < groups; g++ {
		rows := l.src[l.off[g]:l.off[g+1]]
		for lane := 0; lane < 4; lane++ {
			var list []int32
			if s := 4*g + lane; s < n {
				v := l.node[s]
				list = c.src[c.start[v]:c.start[v+1]]
			}
			for r := lane; r < len(rows); r += 4 {
				rows[r] = int32(n)
				if len(list) > 0 {
					rows[r], list = l.slot[list[0]], list[1:]
				}
			}
		}
	}
}

// rankCSRWorkers is rankCSR at a resolved worker count (cfg already
// defaulted): the gather kernel over ranges of lane groups on up to
// workers goroutines, or one call over every group when workers is 1.
func rankCSRWorkers(c *csr, bias []float64, cfg Config, workers int, bufs *rankBufs) []float64 {
	n := len(c.outDeg)
	if n == 0 {
		return nil
	}
	l := &bufs.lanes
	l.build(c)
	dangling := bufs.dangling[:0]
	for _, s := range l.slot {
		if l.deg[s] == 0 {
			dangling = append(dangling, s)
		}
	}
	bufs.dangling = dangling
	slots := len(l.deg)
	bufs.bias, bufs.rank, bufs.next = resize(bufs.bias, slots), resize(bufs.rank, slots), resize(bufs.next, slots)
	bufs.share, bufs.nextShare = resize(bufs.share, slots), resize(bufs.nextShare, slots)
	bufs.diff = resize(bufs.diff, slots)
	k := gatherStep{l: l, bias: bufs.bias, rank: bufs.rank, share: bufs.share,
		next: bufs.next, nextShare: bufs.nextShare, diff: bufs.diff, damping: cfg.Damping}
	clear(k.bias[n:])
	for v, s := range l.slot {
		k.bias[s] = bias[v]
	}
	copy(k.rank, k.bias)
	for s, d := range l.deg {
		if d > 0 {
			k.share[s] = k.rank[s] / float64(d)
		}
	}
	k.share[n], k.nextShare[n] = 0, 0
	groups := len(l.off) - 1
	run := k.run
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		var mass float64
		for _, s := range dangling {
			mass += k.rank[s]
		}
		k.dangling = mass
		if workers > 1 {
			parallel.ForGrain(groups, workers, rankGrain, run)
		} else {
			run(0, groups)
		}
		k.rank, k.next = k.next, k.rank
		k.share, k.nextShare = k.nextShare, k.share
		if l1Below(k.diff, l.slot, cfg.Tol) {
			break
		}
	}
	bufs.out = resize(bufs.out, n)
	for v, s := range l.slot {
		bufs.out[v] = k.rank[s]
	}
	return bufs.out
}

// l1Below reports whether the L1 delta, diff summed over slot (node
// order, the serial reference's summation order), is below tol. That
// sum is one chain of dependent adds, so a four-chain sum of the same
// terms in slot order screens it first. Both are sums of the same n
// non-negative terms, each within a relative γ = (n-1)u/(1-(n-1)u) of
// the exact sum (u = 2^-53), so the screen s' bounds the reference sum
// s from below: s >= s'(1-γ)/(1+γ) > s'/2 for any n below 2^50. A
// screen of at least 2·tol thus proves s >= tol, and only a screen
// below that (or NaN) pays for the exact sum, which decides.
func l1Below(diff []float64, slot []int32, tol float64) bool {
	var d0, d1, d2, d3 float64
	d := diff[:len(slot)]
	for ; len(d) >= 4; d = d[4:] {
		d0 += d[0]
		d1 += d[1]
		d2 += d[2]
		d3 += d[3]
	}
	for _, x := range d {
		d0 += x
	}
	if (d0+d1)+(d2+d3) >= 2*tol {
		return false
	}
	var delta float64
	for _, s := range slot {
		delta += diff[s]
	}
	return delta < tol
}

// gatherStep is one power iteration over a range of lane groups: every
// slot gathers its sources' shares, mixes in teleport and dangling
// mass, and records its new rank, its new share for the next iteration
// (the division the scatter loop performs once per source) and its L1
// change. A group reads only rank, share and bias and writes only its
// own four slots of next, nextShare and diff, so ranges are free of
// cross-talk at any grain or worker count.
type gatherStep struct {
	l                     *lanes
	bias, rank, share     []float64
	next, nextShare, diff []float64
	damping, dangling     float64
}

func (k *gatherStep) run(lo, hi int) {
	off, src, deg := k.l.off, k.l.src, k.l.deg
	bias, rank, share := k.bias, k.rank, k.share
	next, nextShare, diff := k.next, k.nextShare, k.diff
	damping, dangling := k.damping, k.dangling
	for g := lo; g < hi; g++ {
		// Four independent add chains, one per lane.
		var a0, a1, a2, a3 float64
		for rows := src[off[g]:off[g+1]]; len(rows) >= 4; rows = rows[4:] {
			a0 += share[rows[0]]
			a1 += share[rows[1]]
			a2 += share[rows[2]]
			a3 += share[rows[3]]
		}
		for lane, acc := range [4]float64{a0, a1, a2, a3} {
			s := 4*g + lane
			nv := (1-damping)*bias[s] + damping*(acc+dangling*bias[s])
			diff[s] = math.Abs(nv - rank[s])
			next[s] = nv
			if d := deg[s]; d > 0 {
				nextShare[s] = nv / float64(d)
			}
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
