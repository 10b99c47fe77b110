package trust

import (
	"fmt"
	"math/rand"
	"testing"
)

// servingShapedGraph is a symmetrized graph with the serving graph's
// density and hub skew. Late in a serve-cold round that graph
// (Dataset-1 training links plus the cold domains) has about 1.86k
// nodes and 23.7k in-entries once symmetrized; 55% of them land on its
// first 256 nodes, three hubs hold 1201, 1102 and 1025, and the median
// in-degree is 7. Here every node links out 6.4 times on average,
// about 29% of the edges point at one of three hubs, most of the rest
// at the first 14% of the nodes and one in twenty anywhere; self links
// and parallel edges arise as in crawled link lists. At 1864 nodes
// that gives 23.9k in-entries, 54% on the first 256 nodes, hubs of
// 1259, 1181 and 1065 and a median of 7.
func servingShapedGraph(nodes int) *Graph {
	rng := rand.New(rand.NewSource(int64(nodes)))
	g := NewGraph()
	names := make([]string, nodes)
	for i := range names {
		names[i] = "n" + itoa(i)
		g.Node(names[i])
	}
	head := max(4, nodes*14/100)
	for i := 0; i < 32*nodes/5; i++ {
		dst := rng.Intn(nodes)
		switch r := rng.Float64(); {
		case r < 0.107:
			dst = 0
		case r < 0.205:
			dst = 1 % nodes
		case r < 0.294:
			dst = 2 % nodes
		case r < 0.95:
			dst = (3 + rng.Intn(head-3)) % nodes
		}
		g.AddEdge(names[rng.Intn(nodes)], names[dst])
	}
	return g.Undirected()
}

// BenchmarkRankGate times one rank call (the CSR prebuilt; the lane
// layout built per call, as in serving) on one goroutine and on two,
// across graph sizes; minParallelNodes is set from where the two-worker
// time drops below the one-worker time.
//
//	go test -run '^$' -bench RankGate -benchtime 100x -count 6 ./internal/trust
func BenchmarkRankGate(b *testing.B) {
	for _, nodes := range []int{2048, 4096, 8192, 16384, 32768} {
		g := servingShapedGraph(nodes)
		var c csr
		c.transpose(g.out)
		bias := make([]float64, g.Len())
		bias[0] = 1
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
				// Workers above 1 take the parallel path whatever the
				// gate says: the benchmark measures both sides of it.
				var bufs rankBufs
				for i := 0; i < b.N; i++ {
					rankCSRWorkers(&c, bias, Config{}.withDefaults(), workers, &bufs)
				}
			})
		}
	}
}
