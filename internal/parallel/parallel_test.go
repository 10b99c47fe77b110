package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 123
		counts := make([]int64, n)
		For(n, workers, func(i int) { atomic.AddInt64(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, c)
			}
		}
	}
}

func TestForZeroAndTinyN(t *testing.T) {
	For(0, 4, func(i int) { t.Fatalf("f called for n=0 (i=%d)", i) })
	ran := false
	For(1, 8, func(i int) { ran = true })
	if !ran {
		t.Fatal("f not called for n=1")
	}
}

func TestForBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	For(64, 3, func(i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent workers, want <= 3", p)
	}
}

func TestMapErrOrdersResults(t *testing.T) {
	out, err := MapErr(50, 8, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	_, err := MapErr(20, 8, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, errLow
		case 17:
			return 0, errHigh
		}
		return i, nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want lowest-index error %v", err, errLow)
	}
}

func TestMapErrMatchesSequential(t *testing.T) {
	// The parallel engine must be a pure reordering of execution: the
	// assembled results are identical at any worker count.
	f := func(i int) (string, error) { return fmt.Sprintf("item-%d", i*7%13), nil }
	seq, err := MapErr(40, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MapErr(40, runtime.GOMAXPROCS(0)*2, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("index %d: sequential %q != parallel %q", i, seq[i], par[i])
		}
	}
}

func TestForPropagatesLowestPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if r != "boom-2" {
			t.Fatalf("recovered %v, want lowest-index panic boom-2", r)
		}
	}()
	For(16, 4, func(i int) {
		if i == 2 || i == 9 {
			panic(fmt.Sprintf("boom-%d", i))
		}
	})
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
	SetDefault(3)
	defer SetDefault(0)
	if got := Workers(0); got != 3 {
		t.Fatalf("Workers(0) with default 3 = %d", got)
	}
	SetDefault(0)
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestForGrainCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		for _, grain := range []int{0, 1, 3, 50, 1000} {
			n := 137
			counts := make([]int64, n)
			ForGrain(n, workers, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad chunk [%d,%d)", lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d grain=%d: index %d ran %d times", workers, grain, i, c)
				}
			}
		}
	}
}

func TestForGrainChunkLayoutIndependentOfWorkers(t *testing.T) {
	// With an explicit grain the chunk boundaries must depend only on
	// (n, grain): per-chunk scratch state then sees identical index
	// ranges at every worker count.
	collect := func(workers int) map[int]int {
		boundaries := make(map[int]int)
		var mu sync.Mutex
		ForGrain(100, workers, 7, func(lo, hi int) {
			mu.Lock()
			boundaries[lo] = hi
			mu.Unlock()
		})
		return boundaries
	}
	a, b := collect(1), collect(8)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for lo, hi := range a {
		if b[lo] != hi {
			t.Fatalf("chunk [%d,%d) at workers=1 became [%d,%d) at workers=8", lo, hi, lo, b[lo])
		}
	}
}

func TestForGrainZeroN(t *testing.T) {
	ForGrain(0, 4, 8, func(lo, hi int) { t.Fatal("f called for n=0") })
}

func TestForGrainPropagatesLowestChunkPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if r != "boom-3" {
			t.Fatalf("recovered %v, want boom-3", r)
		}
	}()
	ForGrain(32, 4, 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 3 || i == 17 {
				panic(fmt.Sprintf("boom-%d", i))
			}
		}
	})
}
