// Package kernelgate times an optimized kernel against its naive
// reference for the BenchmarkKernelGate functions that sit beside each
// kernel, and checks the result against the kernel's bars. Only test
// files import it, so neither the references nor this harness link
// into a binary.
//
// The gates are ratio-based, so they hold across machines:
//
//	go test -run '^$' -bench '^BenchmarkKernelGate$' -benchtime 1x ./...
//
// Each gate body measures once whatever b.N is; -benchtime 1x runs it
// once.
package kernelgate

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// Bars are one kernel's acceptance bars. A speedup bar is max(the
// optimization's acceptance bar, a single-core measurement / 1.5),
// rounded up, and an allocs/op ceiling that measurement × 1.5 + 2,
// rounded down: the 1.5 band absorbs what noise the fastest-of-five
// pairing leaves on a shared runner.
type Bars struct {
	// Speedup is the least naive/kernel wall-clock ratio.
	Speedup float64
	// AllocRatio is the least naive/kernel allocation ratio, the
	// kernel's count clamped to at least 1 so a kernel that does not
	// allocate yields a finite ratio.
	AllocRatio float64
	// AllocsOp is the most heap allocations one kernel call may make.
	AllocsOp float64
}

// Result is one gate measurement: nanoseconds and heap allocations per
// call of each path.
type Result struct {
	NaiveNS, KernelNS         float64
	NaiveAllocs, KernelAllocs float64
}

// Speedup is NaiveNS / KernelNS.
func (r Result) Speedup() float64 { return r.NaiveNS / r.KernelNS }

// AllocRatio is NaiveAllocs over KernelAllocs clamped to at least 1.
func (r Result) AllocRatio() float64 { return allocRatio(r.NaiveAllocs, r.KernelAllocs) }

func allocRatio(naive, kernel float64) float64 { return naive / max(kernel, 1) }

// Check returns the first bar r misses, or nil.
func (b Bars) Check(r Result) error {
	if s := r.Speedup(); s < b.Speedup {
		return fmt.Errorf("speedup %.2fx below the %.2fx floor", s, b.Speedup)
	}
	if a := r.AllocRatio(); a < b.AllocRatio {
		return fmt.Errorf("alloc ratio %.2fx below the %.1fx floor", a, b.AllocRatio)
	}
	if r.KernelAllocs > b.AllocsOp {
		return fmt.Errorf("%.1f allocs/op exceeds the ceiling of %.2f", r.KernelAllocs, b.AllocsOp)
	}
	return nil
}

// Benchtime is the length each timed batch is calibrated to.
const Benchtime = 100 * time.Millisecond

// pairRounds is how many interleaved naive/kernel batch pairs Measure
// times.
const pairRounds = 5

// Run is a BenchmarkKernelGate body: it measures naive against kernel
// (see Measure), reports the figures as benchmark metrics and fails b
// if the result misses a bar. The caller checks that both paths give
// identical output first.
func Run(b *testing.B, bars Bars, naive, kernel func()) {
	b.Helper()
	r := Measure(Benchtime, naive, kernel)
	b.ReportMetric(r.KernelNS, "ns/op")
	b.ReportMetric(r.NaiveNS, "naive-ns/op")
	b.ReportMetric(r.Speedup(), "speedup")
	b.ReportMetric(r.KernelAllocs, "kernel-allocs/op")
	b.ReportMetric(r.AllocRatio(), "alloc-ratio")
	if err := bars.Check(r); err != nil {
		b.Fatal(err)
	}
}

// CheckAllocRatio fails t unless kernel allocates at least
// bars.AllocRatio times less than naive per call, counted by
// testing.AllocsPerRun over runs calls each. Allocation counts do not
// depend on how busy the machine is, so unit tests run this half of a
// gate.
func CheckAllocRatio(t testing.TB, bars Bars, runs int, naive, kernel func()) {
	t.Helper()
	n, k := testing.AllocsPerRun(runs, naive), testing.AllocsPerRun(runs, kernel)
	if a := allocRatio(n, k); a < bars.AllocRatio {
		t.Fatalf("alloc ratio %.2fx (naive %.0f, kernel %.0f allocs/op) below the %.1fx floor", a, n, k, bars.AllocRatio)
	}
}

// Measure times naive against kernel in pairRounds interleaved pairs
// of batches, each batch calibrated to about benchtime, and reports
// each side's fastest batch and fewest allocations per call. A
// slowdown of the shared machine lasting part of the run then hits
// both sides of the pairs it spans, and taking the minimum discards it
// rather than averaging it into one side's mean.
func Measure(benchtime time.Duration, naive, kernel func()) Result {
	ni, ki := calibrate(benchtime, naive), calibrate(benchtime, kernel)
	r := Result{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
	for i := 0; i < pairRounds; i++ {
		ns, allocs := timeBatch(ni, naive)
		r.NaiveNS, r.NaiveAllocs = min(r.NaiveNS, ns), min(r.NaiveAllocs, allocs)
		ns, allocs = timeBatch(ki, kernel)
		r.KernelNS, r.KernelAllocs = min(r.KernelNS, ns), min(r.KernelAllocs, allocs)
	}
	return r
}

// calibrate runs f in growing batches until one takes at least
// benchtime and returns that batch's iteration count.
func calibrate(benchtime time.Duration, f func()) int {
	f() // warmup: pools filled, caches primed
	target := int64(benchtime)
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		ns := int64(time.Since(start))
		if ns >= target || iters >= 1<<24 {
			return iters
		}
		next := iters * 4
		if ns > 0 {
			next = int(float64(iters)*float64(target)/float64(ns)*1.2) + 1
		}
		if next <= iters {
			next = iters * 2
		}
		iters = next
	}
}

// timeBatch runs f iters times and returns nanoseconds and heap
// allocations per call. Allocations are process-wide Mallocs deltas;
// the gates run single-goroutine so the numbers are attributable to f.
func timeBatch(iters int, f func()) (nsOp, allocsOp float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	ns := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(ns) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}
