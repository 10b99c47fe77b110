package ngram

import (
	"context"
	"strings"
	"sync"
	"testing"

	"pharmaverify/internal/dataset"
	"pharmaverify/internal/parallel"
	"pharmaverify/internal/webgen"
)

// benchPlane is the n-gram-graph training plane of the benchmark's
// train-eval snapshot: a 24 + 186 pharmacy webgen world (seed 20180326,
// network size 40), each pharmacy's terms subsampled to 100 with seed 1
// and joined by spaces, as core's n-gram-graph cells build it. About
// 605k document edges, 172k of them distinct.
var benchPlane = sync.OnceValue(func() []string {
	w := webgen.Generate(webgen.Config{Seed: 20180326, Snapshot: 1, NumLegit: 24, NumIllegit: 186, NetworkSize: 40})
	snap, err := dataset.BuildCtx(context.Background(), "bench-plane", w, w.Domains(), w.Labels(), dataset.BuildOptions{})
	if err != nil {
		panic(err)
	}
	sub := snap.SubsampledTerms(100, 1)
	docs := make([]string, len(sub))
	for i, ts := range sub {
		docs[i] = strings.Join(ts, " ")
	}
	return docs
})

// BenchmarkNewCorpus interns the train-eval plane at the process
// default worker count, with the document grain core's plane build
// plans for it.
func BenchmarkNewCorpus(b *testing.B) {
	texts := benchPlane()
	plan := parallel.PlanGrain(0, 1, len(texts))
	b.ReportAllocs()
	b.ResetTimer()
	var c *Corpus
	for i := 0; i < b.N; i++ {
		c = NewCorpus(texts, plan.DocWorkers, plan.DocGrain)
	}
	b.ReportMetric(float64(c.edges), "edges")
}
