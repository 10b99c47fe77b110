package kernelgate

import (
	"strings"
	"testing"
	"time"
)

// TestBarsCheck: a result exactly at its bars passes, and missing any
// one bar fails with a message naming it.
func TestBarsCheck(t *testing.T) {
	bars := Bars{Speedup: 2, AllocRatio: 2, AllocsOp: 5}
	at := Result{NaiveNS: 200, KernelNS: 100, NaiveAllocs: 10, KernelAllocs: 5}
	if err := bars.Check(at); err != nil {
		t.Fatalf("a result at the bars should pass: %v", err)
	}
	breaks := []struct {
		name, want string
		apply      func(*Result)
	}{
		{"slow", "speedup", func(r *Result) { r.KernelNS += 0.01 }},
		{"heavy", "alloc ratio", func(r *Result) { r.NaiveAllocs -= 0.01 }},
		{"leaky", "allocs/op", func(r *Result) { r.KernelAllocs += 0.01; r.NaiveAllocs += 1 }},
	}
	for _, b := range breaks {
		r := at
		b.apply(&r)
		if err := bars.Check(r); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: got %v, want an error containing %q", b.name, err, b.want)
		}
	}
	// A kernel that does not allocate is judged against one allocation.
	free := Result{NaiveNS: 2, KernelNS: 1, NaiveAllocs: 2, KernelAllocs: 0}
	if got := free.AllocRatio(); got != 2 {
		t.Errorf("AllocRatio with a non-allocating kernel = %v, want 2", got)
	}
}

var sink []byte

// TestMeasure: a measurement is non-degenerate and counts the
// allocations of each side.
func TestMeasure(t *testing.T) {
	r := Measure(time.Millisecond, func() {
		sink = make([]byte, 64)
		sink = make([]byte, 64)
	}, func() {
		sink = make([]byte, 64)
	})
	if r.NaiveNS <= 0 || r.KernelNS <= 0 || r.Speedup() <= 0 {
		t.Errorf("degenerate timing %+v", r)
	}
	if r.NaiveAllocs < 2 || r.KernelAllocs < 1 {
		t.Errorf("allocations not counted: %+v", r)
	}
}
