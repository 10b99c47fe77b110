package serve

import (
	"fmt"
	"testing"
	"time"
)

func TestVerdictCacheLRUEviction(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	c := newVerdictCache(2, time.Hour, 0, clock.now)
	c.put("a", DomainVerdict{Domain: "a"})
	c.put("b", DomainVerdict{Domain: "b"})
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", DomainVerdict{Domain: "c"})
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction past the bound")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("new entry missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	if _, _, _, evictions := c.stats(); evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
}

func TestVerdictCacheTTL(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	c := newVerdictCache(10, time.Minute, 0, clock.now)
	c.put("k", DomainVerdict{Domain: "k", Rank: 1})
	clock.advance(59 * time.Second)
	if _, ok := c.get("k"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clock.advance(2 * time.Second)
	if _, ok := c.get("k"); ok {
		t.Fatal("entry survived past its TTL")
	}
	hits, misses, expiries, _ := c.stats()
	if hits != 1 || misses != 1 || expiries != 1 {
		t.Errorf("stats = %d/%d/%d, want 1 hit, 1 miss, 1 expiry", hits, misses, expiries)
	}
	// Re-put refreshes the TTL from the current time.
	c.put("k", DomainVerdict{Domain: "k", Rank: 2})
	clock.advance(59 * time.Second)
	v, ok := c.get("k")
	if !ok || v.Rank != 2 {
		t.Errorf("refreshed entry: ok=%v rank=%v, want fresh rank 2", ok, v.Rank)
	}
}

func TestVerdictCachePutRefreshesExisting(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	c := newVerdictCache(10, time.Minute, 0, clock.now)
	c.put("k", DomainVerdict{Rank: 1})
	clock.advance(50 * time.Second)
	c.put("k", DomainVerdict{Rank: 2})
	clock.advance(50 * time.Second) // 100 s after first put, 50 s after second
	v, ok := c.get("k")
	if !ok || v.Rank != 2 {
		t.Errorf("ok=%v rank=%v, want the refreshed verdict to still be live", ok, v.Rank)
	}
	if c.len() != 1 {
		t.Errorf("len = %d after re-put, want 1", c.len())
	}
}

func TestVerdictCacheConcurrent(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	c := newVerdictCache(32, time.Hour, 0, clock.now)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%64)
				if i%3 == 0 {
					c.put(key, DomainVerdict{Domain: key})
				} else {
					c.get(key)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.len() > 32 {
		t.Errorf("len = %d exceeds the bound", c.len())
	}
}

// refresh (the sweep's write) updates a cached entry without moving it
// in the LRU order, fills spare room at the cold end, and never evicts.
func TestVerdictCacheRefreshDoesNotPromote(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	c := newVerdictCache(3, time.Minute, 0, clock.now)
	c.put("a", DomainVerdict{Rank: 1})
	c.put("b", DomainVerdict{Rank: 1})
	c.refresh("s", DomainVerdict{Rank: 1}) // spare room: joins at the cold end
	c.refresh("a", DomainVerdict{Rank: 2}) // in place, not promoted
	c.refresh("x", DomainVerdict{Rank: 1}) // full: not inserted
	// LRU order is still b, a, s (s coldest): two live puts evict s,
	// then a — had the refresh promoted a, they would evict s, then b.
	c.put("c", DomainVerdict{})
	c.put("d", DomainVerdict{})
	for key, want := range map[string]bool{"x": false, "s": false, "a": false, "b": true, "c": true, "d": true} {
		if _, ok := c.get(key); ok != want {
			t.Errorf("%s cached = %v, want %v", key, ok, want)
		}
	}
	if _, _, _, evictions := c.stats(); evictions != 2 {
		t.Errorf("evictions = %d, want the 2 caused by live puts", evictions)
	}

	// The in-place update carries the new verdict and renews its TTL.
	c = newVerdictCache(3, time.Minute, 0, clock.now)
	c.put("a", DomainVerdict{Rank: 1})
	clock.advance(50 * time.Second)
	c.refresh("a", DomainVerdict{Rank: 2})
	clock.advance(20 * time.Second) // 70 s after the put, 20 s after the refresh
	if v, ok := c.get("a"); !ok || v.Rank != 2 {
		t.Errorf("a: ok=%v rank=%v, want the refreshed verdict, still live", ok, v.Rank)
	}
}
