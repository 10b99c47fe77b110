package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at: the
// usual reporting percentiles. The reported tail is the highest of them
// with at least ten samples beyond it, so a run's tail sits at a fixed
// quantile of the latency distribution instead of drifting with the
// run's sample count.
var tailLadder = []float64{75, 90, 95, 99, 99.9, 99.99, 99.999}

// minTailSamples is the sample count below which no percentile above
// the median has ten samples beyond it that mean anything: the median
// is reported alone.
const minTailSamples = 40

// tailPercentile returns the percentile reported as the tail of n
// samples: 50 below minTailSamples, otherwise the highest ladder
// percentile with at least ten samples beyond it.
func tailPercentile(n int) float64 {
	if n < minTailSamples {
		return 50
	}
	best := 50.0
	for _, p := range tailLadder {
		if n-rankAt(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// rankAt is the nearest-rank position (1-based) of percentile p among n
// sorted samples.
func rankAt(p float64, n int) int {
	// The epsilon keeps exact products such as 99.9% of 10000 from
	// rounding up a whole rank.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankAt(p, len(sorted))-1]
}

// tailBlock is the fewest consecutive operations a tail block holds: a
// block of 100 supports p90 with ten samples beyond it.
const tailBlock = 100

// blockTail reports the tail of latencies in completion order. A run of
// fewer than 2×tailBlock operations is one block, whose tail is its
// highest percentile with at least ten samples beyond it. A longer run
// is cut into as many equal consecutive blocks of at least tailBlock
// operations as fit; each block's tail is taken the same way (p90 for
// blocks of 100 to 199) and the median over blocks is reported.
//
// On the shared two-vCPU machine the benchmark was built on, a tail taken
// over a whole run was the least repeatable figure, because the slowest
// few operations are whatever the machine did at the time. Over the
// same eight serve-hot runs, the spread (Q3−Q1)/median was 0.63 for the
// run-wide p99.9, 0.44 for the run-wide p99, 0.39 for the median of
// 1000-operation blocks' p99, 0.16 for 200-operation blocks' p95 and
// 0.07 for 100-operation blocks' p90; every bound is capped at 0.25.
func blockTail(lat []time.Duration) (pct float64, tail time.Duration, blocks int) {
	blocks = len(lat) / tailBlock
	if blocks < 1 {
		blocks = 1
	}
	tails := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		block := append([]time.Duration(nil), lat[b*len(lat)/blocks:(b+1)*len(lat)/blocks]...)
		sort.Slice(block, func(i, j int) bool { return block[i] < block[j] })
		pct = tailPercentile(len(block))
		tails = append(tails, float64(percentile(block, pct)))
	}
	return pct, time.Duration(median(tails)), blocks
}

// latencySummary is a run's latency distribution as reported.
type latencySummary struct {
	n       int
	p50     time.Duration
	tailPct float64
	tail    time.Duration
	blocks  int
	mean    time.Duration
	total   time.Duration
	sorted  []time.Duration
}

// summarize describes latencies given in completion order.
func summarize(lat []time.Duration) latencySummary {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var total time.Duration
	for _, d := range s {
		total += d
	}
	out := latencySummary{n: len(s), total: total, sorted: s}
	if len(s) == 0 {
		return out
	}
	out.p50 = percentile(s, 50)
	out.tailPct, out.tail, out.blocks = blockTail(lat)
	out.mean = total / time.Duration(len(s))
	return out
}

// median of float samples (the mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
