package trust

import (
	"fmt"
	"math/rand"
	"testing"
)

// servingShapedGraph is a symmetrized hub-skewed graph with about six
// directed edges per node before symmetrization — the density of the
// serving graph (Dataset-1 training links plus a round of cold domains:
// about 1.9k nodes, 11.9k directed edges).
func servingShapedGraph(nodes int) *Graph {
	return bigRandomGraph(rand.New(rand.NewSource(int64(nodes))), nodes, 6*nodes).Undirected()
}

// BenchmarkRankGate times the gather kernel alone (layout prebuilt) on
// one goroutine and on two, across graph sizes; minParallelNodes is set
// from where the two-worker time drops below the one-worker time.
//
//	go test -run '^$' -bench RankGate -benchtime 100x -count 3 ./internal/trust
func BenchmarkRankGate(b *testing.B) {
	for _, nodes := range []int{2048, 4096, 8192, 16384} {
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
