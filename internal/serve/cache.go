package serve

import (
	"container/list"
	"sync"
	"time"
)

// verdictCache is the TTL + LRU verdict cache of the serving layer.
// Keys are "modelFingerprint|domain" (see verdictKey), so a hot model
// reload naturally invalidates every verdict of the previous model
// without a flush — old entries simply stop being addressable and age
// out of the LRU. The design mirrors internal/featcache (bounded entry
// count, front-of-list = most recently used) with per-entry expiry on
// top; singleflight lives one layer up in flightGroup, because the
// serving path must distinguish a cache hit from a deduplicated crawl.
//
// Expired entries are retained for up to maxStale beyond the TTL (and
// remain LRU-evictable) so the degradation path can serve a marked
// stale verdict when live assessment fails entirely — answering with
// yesterday's verdict beats answering with an error. getStale is that
// fallback read; get never returns an expired entry.
type verdictCache struct {
	mu       sync.Mutex
	max      int
	ttl      time.Duration
	maxStale time.Duration
	now      func() time.Time
	order    *list.List
	entries  map[string]*list.Element

	hits, misses, expiries, evictions, staleServes uint64
}

type cacheEntry struct {
	key    string
	v      DomainVerdict
	stored time.Time
}

// newVerdictCache builds a cache bounded to max entries whose verdicts
// expire ttl after insertion and stay servable as stale fallbacks for
// maxStale beyond that. now is the clock (injectable for TTL tests).
func newVerdictCache(max int, ttl, maxStale time.Duration, now func() time.Time) *verdictCache {
	if now == nil {
		now = time.Now
	}
	return &verdictCache{
		max:      max,
		ttl:      ttl,
		maxStale: maxStale,
		now:      now,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// get returns the fresh verdict cached under key. An expired entry
// counts as a miss (recorded in expiries as well); it is removed only
// once it is too stale even for the fallback path.
func (c *verdictCache) get(key string) (DomainVerdict, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return DomainVerdict{}, false
	}
	e := el.Value.(*cacheEntry)
	if age := c.now().Sub(e.stored); age >= c.ttl {
		if age >= c.ttl+c.maxStale {
			c.order.Remove(el)
			delete(c.entries, key)
		}
		c.expiries++
		c.misses++
		return DomainVerdict{}, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return e.v, true
}

// getStale is the degradation read: it returns whatever entry is still
// within the stale-serve budget (ttl + maxStale), reporting whether it
// is past its TTL. The pipeline uses it only after live assessment has
// failed; a returned stale verdict is counted and must be marked
// Stale before serving.
func (c *verdictCache) getStale(key string) (v DomainVerdict, stale, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[key]
	if !found {
		return DomainVerdict{}, false, false
	}
	e := el.Value.(*cacheEntry)
	age := c.now().Sub(e.stored)
	if age >= c.ttl+c.maxStale {
		c.order.Remove(el)
		delete(c.entries, key)
		return DomainVerdict{}, false, false
	}
	// Serving keeps the entry warm: while the backends are down it must
	// not be the LRU victim.
	c.order.MoveToFront(el)
	if age >= c.ttl {
		c.staleServes++
		return e.v, true, true
	}
	return e.v, false, true
}

// put stores a verdict under key, evicting the least recently used
// entry beyond the bound. Storing under an existing key refreshes both
// the verdict and its TTL.
func (c *verdictCache) put(key string, v DomainVerdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.v, e.stored = v, c.now()
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&cacheEntry{key: key, v: v, stored: c.now()})
	c.entries[key] = el
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// refresh stores a background re-verification's verdict without
// promoting it: a cached entry is updated in place (verdict and TTL)
// and keeps its LRU position, and an absent key joins at the
// least-recently-used end only while the cache has room. A sweep over
// a corpus larger than the cache thus never evicts the verdicts live
// traffic is hitting.
func (c *verdictCache) refresh(key string, v DomainVerdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.v, e.stored = v, c.now()
		return
	}
	if c.order.Len() < c.max {
		c.entries[key] = c.order.PushBack(&cacheEntry{key: key, v: v, stored: c.now()})
	}
}

func (c *verdictCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func (c *verdictCache) stats() (hits, misses, expiries, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.expiries, c.evictions
}

// staleServed reports how many expired entries the fallback path has
// handed out.
func (c *verdictCache) staleServed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.staleServes
}
