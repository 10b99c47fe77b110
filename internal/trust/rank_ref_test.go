package trust

import "math"

// biasedRankSerial is the scatter formulation of the power iteration,
// kept as the test-only definition of correct: every source u in
// ascending order adds rank[u]/outdeg(u) into each destination it links
// to. rankCSR must reproduce it bit for bit at every worker count.
func biasedRankSerial(g *Graph, bias []float64, cfg Config) []float64 {
	cfg = cfg.withDefaults()
	n := g.Len()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	copy(rank, bias)

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		var dangling float64
		for i := range next {
			next[i] = 0
		}
		for u := 0; u < n; u++ {
			outs := g.out[u]
			if len(outs) == 0 {
				dangling += rank[u]
				continue
			}
			share := rank[u] / float64(len(outs))
			for _, v := range outs {
				next[v] += share
			}
		}
		var delta float64
		for i := 0; i < n; i++ {
			nv := (1-cfg.Damping)*bias[i] + cfg.Damping*(next[i]+dangling*bias[i])
			delta += math.Abs(nv - rank[i])
			rank[i] = nv
		}
		if delta < cfg.Tol {
			break
		}
	}
	return rank
}

// referenceTrustRank is TrustRank over the scatter reference.
func referenceTrustRank(g *Graph, seeds map[string]float64, cfg Config) []float64 {
	bias := make([]float64, g.Len())
	for id := range bias {
		bias[id] = seeds[g.Name(id)]
	}
	trustBias(bias)
	r := biasedRankSerial(g, bias, cfg)
	normalizeMax(r)
	return r
}

// referencePageRank is PageRank over the scatter reference.
func referencePageRank(g *Graph, cfg Config) []float64 {
	bias := make([]float64, g.Len())
	for i := range bias {
		bias[i] = 1 / float64(len(bias))
	}
	return biasedRankSerial(g, bias, cfg)
}
