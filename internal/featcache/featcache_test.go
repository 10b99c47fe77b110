package featcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoCachesPerKey(t *testing.T) {
	c := New(8)
	builds := 0
	get := func(key string) any {
		v, err := c.Do(key, func() (any, error) {
			builds++
			return "value-" + key, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := get("a"); v != "value-a" {
		t.Fatalf("got %v", v)
	}
	if v := get("a"); v != "value-a" {
		t.Fatalf("got %v", v)
	}
	if v := get("b"); v != "value-b" {
		t.Fatalf("got %v", v)
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2 (one per distinct key)", builds)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", hits, misses)
	}
}

func TestSingleflight(t *testing.T) {
	c := New(4)
	var builds atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]any, 32)
	for g := 0; g < len(results); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			v, err := c.Do("shared", func() (any, error) {
				builds.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = v
		}(g)
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1 (singleflight)", n)
	}
	for g, v := range results {
		if v != 42 {
			t.Fatalf("goroutine %d got %v", g, v)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// A single shard pins the exact global-LRU order of the historical
	// single-lock cache; multi-shard caches keep the same order per
	// shard.
	c := NewSharded(3, 1)
	for i := 0; i < 3; i++ {
		c.Do(fmt.Sprintf("k%d", i), func() (any, error) { return i, nil })
	}
	// Touch k0 so k1 becomes the LRU victim.
	c.Do("k0", func() (any, error) { t.Fatal("k0 rebuilt"); return nil, nil })
	c.Do("k3", func() (any, error) { return 3, nil })
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if c.Contains("k1") {
		t.Fatal("k1 not evicted (LRU order violated)")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if !c.Contains(k) {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestErrorsAreCached(t *testing.T) {
	c := New(2)
	boom := errors.New("boom")
	builds := 0
	for i := 0; i < 2; i++ {
		_, err := c.Do("bad", func() (any, error) {
			builds++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if builds != 1 {
		t.Fatalf("failing build ran %d times, want 1", builds)
	}
}

func TestPurge(t *testing.T) {
	c := New(4)
	c.Do("a", func() (any, error) { return 1, nil })
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("len after purge = %d", c.Len())
	}
	rebuilt := false
	c.Do("a", func() (any, error) { rebuilt = true; return 2, nil })
	if !rebuilt {
		t.Fatal("entry survived purge")
	}
}

func TestDistinctKeysNeverShareEntries(t *testing.T) {
	// Concurrent mixed-key access: every key must see its own value.
	c := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", i)
				v, err := c.Do(key, func() (any, error) { return key + "!", nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v != key+"!" {
					t.Errorf("key %s served foreign value %v", key, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestShardedCapacityDistribution(t *testing.T) {
	cases := []struct {
		max, shards, wantShards int
	}{
		{128, 16, 16},
		{3, 16, 3}, // shards clamp to max
		{10, 0, 1}, // non-positive shard count clamps to 1
		{17, 4, 4}, // uneven split: 5+4+4+4
		{1, 16, 1},
	}
	for _, tc := range cases {
		c := NewSharded(tc.max, tc.shards)
		if c.Shards() != tc.wantShards {
			t.Errorf("NewSharded(%d,%d).Shards() = %d, want %d", tc.max, tc.shards, c.Shards(), tc.wantShards)
		}
		total := 0
		for _, s := range c.shards {
			if s.max < 1 {
				t.Errorf("NewSharded(%d,%d): shard capacity %d < 1", tc.max, tc.shards, s.max)
			}
			total += s.max
		}
		if total != tc.max {
			t.Errorf("NewSharded(%d,%d): shard capacities sum to %d, want %d", tc.max, tc.shards, total, tc.max)
		}
	}
}

func TestShardedBoundHolds(t *testing.T) {
	// Overfill a striped cache: the total entry count must never exceed
	// the global bound no matter how the keys hash.
	c := New(32)
	for i := 0; i < 500; i++ {
		c.Do(fmt.Sprintf("key-%d", i), func() (any, error) { return i, nil })
		if n := c.Len(); n > 32 {
			t.Fatalf("cache grew to %d entries, bound is 32", n)
		}
	}
	_, misses, evictions := func() (uint64, uint64, uint64) { return c.Stats() }()
	if misses != 500 {
		t.Errorf("misses = %d, want 500", misses)
	}
	if evictions < 500-32 {
		t.Errorf("evictions = %d, want >= %d", evictions, 500-32)
	}
}

// TestStripedStress hammers a small striped cache from many goroutines
// with mixed hits, misses and evictions across shards, while checking
// that every key only ever serves its own value and that singleflight
// still deduplicates per key. Run with -race.
func TestStripedStress(t *testing.T) {
	c := NewSharded(24, 8)
	const keys = 96 // 4x the bound: constant eviction pressure
	var builds [keys]atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 400; i++ {
				k := (g*31 + i*17) % keys
				key := fmt.Sprintf("key-%d", k)
				v, err := c.Do(key, func() (any, error) {
					builds[k].Add(1)
					return k, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v != k {
					t.Errorf("key %s served foreign value %v", key, v)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if n := c.Len(); n > 24 {
		t.Fatalf("cache holds %d entries, bound is 24", n)
	}
	hits, misses, _ := c.Stats()
	if hits+misses != 16*400 {
		t.Errorf("hits+misses = %d, want %d lookups", hits+misses, 16*400)
	}
}

// TestSingleflightDedupsUnderShardPressure pins the per-key dedup with
// concurrent traffic on *other* keys of the same cache: unrelated
// builds must not break the shared flight.
func TestSingleflightDedupsUnderShardPressure(t *testing.T) {
	// Bound far above the churn-key count: eviction must not reclaim
	// the shared flight's placeholder (an evicted placeholder may
	// legitimately rebuild).
	c := NewSharded(4096, 8)
	var builds atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				v, err := c.Do("shared", func() (any, error) {
					builds.Add(1)
					<-gate // hold the flight open while other keys churn
					return "payload", nil
				})
				if err != nil || v != "payload" {
					t.Errorf("shared flight: %v, %v", v, err)
				}
			} else {
				for i := 0; i < 50; i++ {
					c.Do(fmt.Sprintf("churn-%d-%d", g, i), func() (any, error) { return i, nil })
				}
				if g == 1 {
					close(gate)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("shared build ran %d times, want 1", n)
	}
}

func TestCancellationErrorsAreNotCached(t *testing.T) {
	for _, cancelErr := range []error{
		context.Canceled,
		context.DeadlineExceeded,
		fmt.Errorf("build fold 2: %w", context.Canceled), // wrapped
	} {
		c := New(8)
		builds := 0
		_, err := c.Do("k", func() (any, error) {
			builds++
			return nil, cancelErr
		})
		if !errors.Is(err, cancelErr) {
			t.Fatalf("first call err = %v, want %v", err, cancelErr)
		}
		if c.Contains("k") {
			t.Fatalf("%v: poisoned placeholder survived in the cache", cancelErr)
		}
		// The retry must rebuild — and a successful rebuild sticks.
		v, err := c.Do("k", func() (any, error) {
			builds++
			return "recovered", nil
		})
		if err != nil || v != "recovered" {
			t.Fatalf("retry got %v, %v", v, err)
		}
		if builds != 2 {
			t.Fatalf("%v: build ran %d times, want 2 (cancel then retry)", cancelErr, builds)
		}
		v, _ = c.Do("k", func() (any, error) { t.Fatal("healthy value rebuilt"); return nil, nil })
		if v != "recovered" {
			t.Fatalf("cached value = %v", v)
		}
	}
}

func TestCancellationEvictionLeavesFreshFlightAlone(t *testing.T) {
	// Sequence: flight A for key k starts and gets evicted by LRU churn;
	// a fresh healthy flight B re-enters k; then A finishes with a
	// cancellation error. A's cleanup must not evict B's entry.
	c := NewSharded(2, 1)
	aStarted := make(chan struct{})
	aFinish := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do("k", func() (any, error) {
			close(aStarted)
			<-aFinish
			return nil, context.Canceled
		})
	}()
	<-aStarted
	// Evict k (flight A's placeholder) with churn on the single shard.
	c.Do("x1", func() (any, error) { return 1, nil })
	c.Do("x2", func() (any, error) { return 2, nil })
	if c.Contains("k") {
		t.Fatal("placeholder not evicted by churn")
	}
	// Fresh healthy flight for k.
	if v, _ := c.Do("k", func() (any, error) { return "healthy", nil }); v != "healthy" {
		t.Fatalf("fresh flight got %v", v)
	}
	close(aFinish)
	<-done
	if !c.Contains("k") {
		t.Fatal("cancelled stale flight evicted the fresh healthy entry")
	}
	v, _ := c.Do("k", func() (any, error) { t.Fatal("rebuilt"); return nil, nil })
	if v != "healthy" {
		t.Fatalf("entry = %v, want healthy", v)
	}
}
