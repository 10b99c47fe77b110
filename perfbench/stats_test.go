package main

import (
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50},
		{1, 50},
		{39, 50},   // below 40 samples: the median alone
		{40, 75},   // 10 of 40 beyond p75
		{99, 75},   // p90 would leave 9 beyond
		{100, 90},  // exactly 10 beyond p90
		{199, 90},  // p95 would leave 9 beyond
		{200, 95},  // exactly 10 beyond p95
		{999, 95},  // p99 would leave 9 beyond
		{1000, 99}, // exactly 10 beyond p99
		{9999, 99}, // p99.9 would leave 9 beyond
		{10000, 99.9},
		{99999, 99.9},
		{100000, 99.99},
		{1000000, 99.999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// Whatever percentile is chosen, at least ten samples lie beyond it,
// and the next higher ladder percentile would leave fewer.
func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n := minTailSamples; n < 30000; n += 7 {
		p := tailPercentile(n)
		if beyond := n - rankAt(p, n); beyond < 10 {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it", n, p, beyond)
		}
		for _, q := range tailLadder {
			if q > p && n-rankAt(q, n) >= 10 {
				t.Fatalf("n=%d: p%v chosen but p%v also leaves ten beyond", n, p, q)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	var lat []time.Duration
	for i := 100; i >= 1; i-- { // unsorted input
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	s := summarize(lat)
	if s.n != 100 || s.p50 != 50*time.Millisecond || s.tailPct != 90 || s.tail != 90*time.Millisecond || s.blocks != 1 {
		t.Fatalf("summarize = n %d p50 %v tail p%v %v", s.n, s.p50, s.tailPct, s.tail)
	}
	if s.total != 5050*time.Millisecond {
		t.Fatalf("total %v", s.total)
	}
	short := summarize(lat[:30])
	if short.tailPct != 50 || short.tail != short.p50 {
		t.Fatalf("30 samples: tail p%v %v, want the median %v", short.tailPct, short.tail, short.p50)
	}
}

func TestBlockTail(t *testing.T) {
	// 250 operations make two blocks of 125; each block's p90 leaves 12
	// beyond it. One block holds a stall the other does not.
	lat := make([]time.Duration, 250)
	for i := range lat {
		lat[i] = time.Duration(1+i%50) * time.Microsecond
	}
	for i := 0; i < 20; i++ {
		lat[i] = time.Second
	}
	pct, tail, blocks := blockTail(lat)
	if pct != 90 || blocks != 2 {
		t.Fatalf("p%v over %d blocks, want p90 over 2", pct, blocks)
	}
	// The stalled block's p90 is 1 s, the other's 46 µs: the median of
	// two is their mean.
	if want := (time.Second + 46*time.Microsecond) / 2; tail != want {
		t.Fatalf("tail %v, want %v", tail, want)
	}
	// Fewer than two blocks' worth: the run is one block.
	if pct, _, blocks := blockTail(lat[:199]); blocks != 1 || pct != 90 {
		t.Fatalf("199 operations: p%v over %d blocks", pct, blocks)
	}
	if pct, _, blocks := blockTail(lat[:60]); blocks != 1 || pct != 75 {
		t.Fatalf("60 operations: p%v over %d blocks", pct, blocks)
	}
	if _, _, blocks := blockTail(lat[:30]); blocks != 1 {
		t.Fatalf("30 operations: %d blocks", blocks)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}
