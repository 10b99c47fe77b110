package trust

import (
	"slices"
	"sort"
)

// Base is a link structure interned once so that it can be merged with
// a LiveGraph over and over without string work — in serving, a model's
// training outbound links and TrustRank seeds. Its ids follow the node
// order BuildGraph(outbound) produces.
type Base struct {
	ids   map[string]int32
	names []string
	// keys lists the sources in ascending name order; out[id] is a
	// source's endpoint ids as given (repeats and self links kept, as
	// BuildGraph keeps them), nil for a name that is only an endpoint.
	keys []int32
	out  [][]int32
	// seeds[id] is the node's seed value (0 when unseeded); extra holds
	// the seeds naming no base node, for live names that match them.
	seeds []float64
	extra map[string]float64
}

// NewBase interns outbound (source → endpoint names) and seeds.
func NewBase(outbound map[string][]string, seeds map[string]float64) *Base {
	b := &Base{ids: make(map[string]int32)}
	keys := make([]string, 0, len(outbound))
	for d := range outbound {
		keys = append(keys, d)
	}
	sort.Strings(keys)
	intern := func(name string) int32 {
		if id, ok := b.ids[name]; ok {
			return id
		}
		id := int32(len(b.names))
		b.ids[name] = id
		b.names = append(b.names, name)
		b.out = append(b.out, nil)
		return id
	}
	for _, d := range keys {
		src := intern(d)
		eps := make([]int32, 0, len(outbound[d]))
		for _, ep := range outbound[d] {
			eps = append(eps, intern(ep))
		}
		b.keys = append(b.keys, src)
		b.out[src] = eps
	}
	b.seeds = make([]float64, len(b.names))
	for name, v := range seeds {
		if id, ok := b.ids[name]; ok {
			b.seeds[id] = v
		} else {
			if b.extra == nil {
				b.extra = make(map[string]float64)
			}
			b.extra[name] = v
		}
	}
	return b
}

// Ranker computes TrustRank over a Base merged with a LiveGraph: the
// graph BuildGraph builds from the base's outbound map with every live
// source's endpoint list added, replacing the base's entry for the same
// source — symmetrized as Undirected does unless directed — seeded with
// the base's seeds. Scores are bit-identical to
//
//	TrustRank(BuildGraph(merged).Undirected(), seeds, cfg)
//
// (without Undirected when directed), computed with integer work only:
//
//   - Every name has a universe id: its base id, or, for a name only the
//     live graph knows, the next id after the base's, in live-id order.
//     Both tables only grow, so the mapping is extended, never rebuilt.
//   - The merged sources are the base's and the live graph's, both kept
//     in name order; each live source's position among the base sources
//     is found once, by binary search, so merging them is a walk over
//     two lists.
//   - BuildGraph numbers nodes in first-seen order over its sorted
//     sources, each followed by its endpoints; walking the merged
//     sources in order and numbering unseen universe ids as they come
//     reproduces that numbering.
//   - The kernel's in-edge layout is filled straight from the numbered
//     out-lists (csr.transpose, csr.symmetrize).
//
// A Ranker keeps its scratch between calls and is not safe for
// concurrent use; the Ranked results are immutable.
type Ranker struct {
	base     *Base
	live     *LiveGraph
	directed bool
	cfg      Config

	// Per live id: its universe id, and its position among the base's
	// sorted sources (the insertion point; liveEq when a base source has
	// the same name). liveSeeds[u-len(base.names)] is the seed of a
	// live-only universe id.
	liveU     []int32
	livePos   []int32
	liveEq    []bool
	liveSeeds []float64

	// Scratch reused by Rank.
	view   liveView
	merged []mergedSource
	nodeU  []int32
	outs   [][]int32
	flat   []int32
	dir    csr
	sym    csr
	bias   []float64
	bufs   rankBufs
}

// mergedSource is one source of the merged graph: its universe id and
// its endpoints, as base ids (base) or as live ids.
type mergedSource struct {
	u    int32
	eps  []int32
	live bool
}

// NewRanker returns a ranker over base merged with live. directed
// selects the directed graph instead of its symmetrization.
func NewRanker(base *Base, live *LiveGraph, directed bool, cfg Config) *Ranker {
	return &Ranker{base: base, live: live, directed: directed, cfg: cfg}
}

// Ranked is one immutable TrustRank computation of a Ranker.
type Ranked struct {
	// Version is the live graph's version the scores reflect; Nodes and
	// Edges describe the merged directed graph (before symmetrization).
	Version      uint64
	Nodes, Edges int

	base   *Base
	live   *LiveGraph
	liveU  []int32
	node   []int32 // universe id → node, -1 when not in the graph
	scores []float64
}

// Score returns a domain's score and whether the domain is a node of
// the ranked graph.
func (s *Ranked) Score(name string) (float64, bool) {
	u, ok := s.base.ids[name]
	if !ok {
		id := s.live.ID(name)
		if id < 0 || int(id) >= len(s.liveU) {
			return 0, false
		}
		u = s.liveU[id]
	}
	if int(u) >= len(s.node) || s.node[u] < 0 {
		return 0, false
	}
	return s.scores[s.node[u]], true
}

// extend assigns universe ids and base positions to live ids not yet
// seen.
func (r *Ranker) extend(names []string) {
	b := r.base
	for id := len(r.liveU); id < len(names); id++ {
		name := names[id]
		u, ok := b.ids[name]
		if !ok {
			u = int32(len(b.names) + len(r.liveSeeds))
			r.liveSeeds = append(r.liveSeeds, b.extra[name])
		}
		p := sort.Search(len(b.keys), func(i int) bool { return b.names[b.keys[i]] >= name })
		r.liveU = append(r.liveU, u)
		r.livePos = append(r.livePos, int32(p))
		r.liveEq = append(r.liveEq, p < len(b.keys) && b.names[b.keys[p]] == name)
	}
}

// mergeSources lists the merged graph's sources in name order: the
// base's sources and the live graph's, a live source replacing the base
// source of the same name. It returns the number of edges.
func (r *Ranker) mergeSources(v liveView) int {
	b := r.base
	r.merged = r.merged[:0]
	edges := 0
	addLive := func(j int) {
		r.merged = append(r.merged, mergedSource{u: r.liveU[v.sources[j]], eps: v.out[j], live: true})
		edges += len(v.out[j])
	}
	j := 0
	for i := 0; ; i++ {
		// Live sources ordered before base source i (or after the last).
		for j < len(v.sources) && int(r.livePos[v.sources[j]]) == i && !r.liveEq[v.sources[j]] {
			addLive(j)
			j++
		}
		if i == len(b.keys) {
			return edges
		}
		if j < len(v.sources) && int(r.livePos[v.sources[j]]) == i {
			addLive(j) // replaces base source i
			j++
			continue
		}
		k := b.keys[i]
		r.merged = append(r.merged, mergedSource{u: k, eps: b.out[k]})
		edges += len(b.out[k])
	}
}

// Rank computes the scores of the current merged graph.
func (r *Ranker) Rank() *Ranked {
	v := r.live.view(r.view)
	r.view = v
	r.extend(v.names)
	edges := r.mergeSources(v)

	// Number nodes in first-seen order over the merged sources and their
	// endpoints, and lay the out-lists out in node ids.
	universe := len(r.base.names) + len(r.liveSeeds)
	node := make([]int32, universe)
	for i := range node {
		node[i] = -1
	}
	r.nodeU = r.nodeU[:0]
	r.outs = r.outs[:0]
	r.flat = resize(r.flat, edges)
	number := func(u int32) int32 {
		if node[u] < 0 {
			node[u] = int32(len(r.nodeU))
			r.nodeU = append(r.nodeU, u)
			r.outs = append(r.outs, nil)
		}
		return node[u]
	}
	at := 0
	for _, m := range r.merged {
		src := number(m.u)
		lo := at
		for _, ep := range m.eps {
			u := ep
			if m.live {
				u = r.liveU[ep]
			}
			r.flat[at] = number(u)
			at++
		}
		r.outs[src] = r.flat[lo:at:at]
	}

	c := &r.dir
	c.transpose(r.outs)
	if !r.directed {
		r.sym.symmetrize(r.outs, c)
		c = &r.sym
	}
	bias := resize(r.bias, len(r.nodeU))
	r.bias = bias
	nb := int32(len(r.base.names))
	for i, u := range r.nodeU {
		if u < nb {
			bias[i] = r.base.seeds[u]
		} else {
			bias[i] = r.liveSeeds[u-nb]
		}
	}
	trustBias(bias)
	scores := slices.Clone(rankCSR(c, bias, r.cfg, &r.bufs))
	normalizeMax(scores)
	return &Ranked{
		Version: v.version,
		Nodes:   len(r.nodeU),
		Edges:   edges,
		base:    r.base,
		live:    r.live,
		liveU:   slices.Clip(r.liveU),
		node:    node,
		scores:  scores,
	}
}
