// Package parallel is the deterministic fan-out engine used by the
// evaluation pipeline: a bounded, GOMAXPROCS-aware worker pool that
// executes index-addressed work items concurrently and collects the
// results in input order.
//
// Determinism contract: the engine never changes *what* is computed,
// only *when*. Callers must make each work item self-contained before
// dispatch — any shared random stream has to be pre-drawn in index
// order (see eval.CrossValidateOpts) — and then For/MapErr guarantee
// that the assembled results, including the error surfaced by MapErr,
// are identical to a sequential loop over the same items.
package parallel

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
)

// defaultWorkers overrides the GOMAXPROCS default when positive.
var defaultWorkers atomic.Int64

func init() {
	if s := os.Getenv("PHARMAVERIFY_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			defaultWorkers.Store(int64(n))
		}
	}
}

// SetDefault sets the process-wide default worker count used when a
// call site passes workers <= 0. n <= 0 restores the GOMAXPROCS
// default. The PHARMAVERIFY_WORKERS environment variable provides the
// same control without code changes.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Default reports the current process-wide default worker count set by
// SetDefault or PHARMAVERIFY_WORKERS (0 when unset, i.e. GOMAXPROCS).
// Benchmark harnesses use it to save and restore the default around
// their sequential and parallel legs.
func Default() int { return int(defaultWorkers.Load()) }

// Workers resolves a requested worker count: a positive n is used as
// given; n <= 0 falls back to SetDefault / PHARMAVERIFY_WORKERS and
// finally to GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if d := defaultWorkers.Load(); d > 0 {
		return int(d)
	}
	return runtime.GOMAXPROCS(0)
}

// For runs f(0) … f(n-1) on up to Workers(workers) goroutines and
// returns when all calls have finished. Items are handed out in index
// order; with workers resolving to 1 the loop runs inline with no
// goroutines. A panic in any f is re-raised in the caller (the one
// from the lowest index, matching a sequential loop).
func For(n, workers int, f func(i int)) {
	ForCtx(context.Background(), n, workers, f)
}

// ForGrain runs f over the index range [0, n) in contiguous chunks of
// at most grain indices: f(lo, hi) processes indices lo <= i < hi.
// Chunks are dispatched to up to Workers(workers) goroutines in chunk
// order, so fine-grained per-item work (a few microseconds per index)
// pays one goroutine handoff per chunk instead of one per item. The
// chunk layout depends only on n and grain — never on the worker count
// or scheduling — so callers can hold per-chunk scratch state without
// breaking the determinism contract.
//
// grain <= 0 picks an automatic grain: the range is split into roughly
// 8 chunks per worker (at least 1 index each), which keeps the tail of
// the run load-balanced while still amortizing handoffs. Note the
// automatic grain depends on the resolved worker count; callers that
// need a scheduling-independent chunk layout (e.g. per-chunk RNG
// streams) must pass an explicit grain. A panic in any f is re-raised
// in the caller (the one from the lowest chunk, matching a sequential
// loop).
func ForGrain(n, workers, grain int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		w := Workers(workers)
		grain = n / (8 * w)
		if grain < 1 {
			grain = 1
		}
	}
	chunks := (n + grain - 1) / grain
	For(chunks, workers, func(c int) {
		lo := c * grain
		hi := lo + grain
		if hi > n {
			hi = n
		}
		f(lo, hi)
	})
}

// MapErr runs f for every index on up to Workers(workers) goroutines
// and returns the results ordered by index. If any call fails, the
// error of the lowest failing index is returned — the same error a
// sequential loop would surface first — and the results are discarded.
func MapErr[T any](n, workers int, f func(i int) (T, error)) ([]T, error) {
	return MapErrCtx(context.Background(), n, workers, f)
}
