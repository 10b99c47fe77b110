package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForCtxRunsAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran [100]atomic.Bool
		err := ForCtx(context.Background(), len(ran), workers, func(i int) {
			ran[i].Store(true)
		})
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: index %d never ran", workers, i)
			}
		}
	}
}

func TestForCtxPrecanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		err := ForCtx(ctx, 50, workers, func(int) { calls.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := calls.Load(); n != 0 {
			t.Fatalf("workers=%d: %d indices ran on a pre-cancelled context", workers, n)
		}
	}
}

// TestForCtxCancelTruncates checks the truncation contract: after a
// mid-run cancel no further indices are dispatched, in-flight calls
// drain normally, and ctx's error is surfaced.
func TestForCtxCancelTruncates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 200
		var calls atomic.Int64
		// Calls after #5 wait for its cancel to return, so a worker
		// descheduled inside call #5 cannot let the others run the range.
		cancelled := make(chan struct{})
		err := ForCtx(ctx, n, workers, func(i int) {
			switch c := calls.Add(1); {
			case c == 5:
				cancel()
				close(cancelled)
			case c > 5:
				<-cancelled
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The cancel fires inside call #5; beyond it only items already
		// in flight (or already past the done-check) may still run — a
		// couple per worker, never the whole range.
		if got := calls.Load(); got > int64(5+2*workers) {
			t.Fatalf("workers=%d: %d of %d indices ran despite cancellation (want <= %d)",
				workers, got, n, 5+2*workers)
		}
	}
}

func TestMapErrCtxResults(t *testing.T) {
	out, err := MapErrCtx(context.Background(), 10, 4, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestMapErrCtxErrorBeatsCancel pins the precedence rule: an error
// returned by f before the cancel wins over ctx.Err(), matching what a
// sequential loop would have reported.
func TestMapErrCtxErrorBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	_, err := MapErrCtx(ctx, 50, 4, func(i int) (int, error) {
		if i == 3 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the f error to beat context.Canceled", err)
	}
}

func TestMapErrCtxCancelDiscardsResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, err := MapErrCtx(ctx, 100, 4, func(i int) (int, error) {
		if i == 2 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled MapErrCtx must discard its partial results")
	}
}

func TestMapErrCtxLowestErrorWins(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	_, err := MapErrCtx(context.Background(), 20, 4, func(i int) (int, error) {
		switch i {
		case 7:
			return 0, errB
		case 2:
			return 0, errA
		}
		return i, nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the lowest-index error %v", err, errA)
	}
}
