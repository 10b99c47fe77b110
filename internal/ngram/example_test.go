package ngram_test

import (
	"fmt"

	"pharmaverify/internal/ngram"
)

// Two class graphs merged from corpus documents, and a fourth document
// compared against both.
func ExampleCorpus() {
	c := ngram.NewCorpus([]string{
		"licensed pharmacy prescription refill health",
		"pharmacist consultation insurance prescription",
		"cheap pills no prescription discount",
		"licensed pharmacy prescription services",
	}, 1, 0)
	legit, illegit := c.NewClass(), c.NewClass()
	legit.Merge(0)
	legit.Merge(1)
	illegit.Merge(2)
	fmt.Println(c.DocSize(3), "document edges,", legit.Size(), "legitimate class edges")
	sim, _ := c.CompareBoth(3, legit, illegit)
	fmt.Println(sim.CS > 0.2, sim.SS > 0, sim.VS <= sim.CS)
	fmt.Printf("text rank %.3f\n", c.TextRank(3, legit, illegit))
	// Output:
	// 134 document edges, 279 legitimate class edges
	// true true true
	// text rank 4.288
}
