// Package featcache provides the bounded, content-keyed feature cache
// shared by the evaluation pipeline. It memoizes expensive derived
// artifacts (N-Gram-Graph fold features, TF-IDF vocabularies and
// datasets) under keys derived from a hash of the input snapshot's
// *contents* plus the experiment configuration.
//
// Content keys fix a subtle aliasing bug of pointer-formatted keys
// (`fmt.Sprintf("%p", snap)`): a garbage-collected snapshot's address
// can be reused by a different snapshot, silently serving another
// dataset's features. Hashing the contents makes the key collision-free
// for distinct inputs and additionally lets logically identical
// snapshots share entries.
//
// The cache is safe for concurrent use and deduplicates concurrent
// builds of the same key (singleflight): when several goroutines ask
// for a missing entry at once, exactly one executes the build function
// and the rest block until the value is ready.
//
// Internally the cache is lock-striped: keys hash to one of several
// independent shards, each with its own mutex, LRU list and entry map.
// Concurrent CV folds and serving requests touching different keys
// therefore contend on different locks instead of serializing on one
// global mutex; only the (rare) build itself ever blocks other callers
// of the same key. Eviction is LRU *per shard* with the total entry
// bound divided across shards — a global property (the total never
// exceeds the bound) with a local recency order, the standard trade of
// striped LRU caches.
package featcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// defaultShards is the stripe count used by New. 16 shards keep
// contention negligible for the worker counts the evaluation pipeline
// runs at (folds × classifiers, typically well under 64 concurrent
// builders) while costing only 16 small header structs.
const defaultShards = 16

// Cache is a bounded, lock-striped LRU cache with singleflight builds.
// The zero value is not usable; construct with New or NewSharded.
type Cache struct {
	shards []*shard
}

// ScopeTraining names the cache's one accounting scope: the training
// pipeline, which memoizes every feature artifact the core package
// builds — the per-corpus n-gram-graph plane, the per-fold feature
// matrices every ensemble member reads, and the TF-IDF corpora and
// datasets. /metrics and the bench harness label the cache's counters
// with it.
const ScopeTraining = "training"

// CacheStats is a hit/miss counter pair.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// shard is one stripe: an independent LRU map under its own mutex.
type shard struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, evictions uint64
}

// entry is one cache slot. The once gate makes concurrent builders of
// the same key cooperate: the first caller runs the build, the rest
// block on once.Do until val/err are set.
type entry struct {
	key  string
	once sync.Once
	val  any
	err  error
}

// New returns a cache bounded to max entries total (values beyond the
// bound are evicted least-recently-used first within their shard),
// striped over min(16, max) shards. max <= 0 panics: an unbounded
// feature cache would pin every snapshot's features in memory for the
// life of the process.
func New(max int) *Cache {
	return NewSharded(max, defaultShards)
}

// NewSharded is New with an explicit stripe count; shards is clamped to
// [1, max] so every shard can hold at least one entry. The total bound
// max is divided across shards as evenly as possible (the first
// max%shards shards hold one extra entry). shards == 1 gives the exact
// global-LRU semantics of the historical single-lock cache.
func NewSharded(max, shards int) *Cache {
	if max <= 0 {
		panic("featcache: max must be positive")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > max {
		shards = max
	}
	c := &Cache{shards: make([]*shard, shards)}
	base, extra := max/shards, max%shards
	for i := range c.shards {
		m := base
		if i < extra {
			m++
		}
		c.shards[i] = &shard{
			max:     m,
			order:   list.New(),
			entries: make(map[string]*list.Element),
		}
	}
	return c
}

// shardFor hashes a key to its stripe (FNV-1a, 64-bit).
func (c *Cache) shardFor(key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return c.shards[h%uint64(len(c.shards))]
}

// Shards reports the stripe count (for tests and capacity accounting).
func (c *Cache) Shards() int { return len(c.shards) }

// Do returns the value cached under key, building it with build on
// first use. Concurrent calls with the same key share a single build.
// Errors are cached alongside values (builds are assumed deterministic,
// so retrying an identical failing build would fail identically) —
// with one exception: errors that wrap context.Canceled or
// context.DeadlineExceeded are never cached. A cancelled fold's build
// failure says nothing about the key itself, so the placeholder entry
// is evicted and the next caller rebuilds. Goroutines already waiting
// on the poisoned flight still observe the cancellation error (they
// shared that flight's fate); only later callers retry.
//
// The returned value is shared between all callers of the key: treat
// it as read-only.
func (c *Cache) Do(key string, build func() (any, error)) (any, error) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.entries[key]
	if ok {
		s.order.MoveToFront(el)
		s.hits++
	} else {
		s.misses++
		el = s.order.PushFront(&entry{key: key})
		s.entries[key] = el
		for s.order.Len() > s.max {
			oldest := s.order.Back()
			s.order.Remove(oldest)
			delete(s.entries, oldest.Value.(*entry).key)
			s.evictions++
		}
	}
	e := el.Value.(*entry)
	s.mu.Unlock()

	// Outside the lock: a slow build must not serialize unrelated keys.
	// Evicted entries stay valid for goroutines already holding them.
	e.once.Do(func() { e.val, e.err = build() })
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		// Drop the poisoned placeholder so a later retry rebuilds. Only
		// remove the element if the map still points at it — the key may
		// have been evicted and re-entered by a fresh (healthy) flight.
		s.mu.Lock()
		if cur, ok := s.entries[key]; ok && cur == el {
			s.order.Remove(el)
			delete(s.entries, key)
		}
		s.mu.Unlock()
	}
	return e.val, e.err
}

// Len reports the number of cached entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Contains reports whether key currently has an entry, without
// touching recency or stats.
func (c *Cache) Contains(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Purge drops every entry (used by the benchmark harness to measure
// cold-cache runs) and resets the stats counters.
func (c *Cache) Purge() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.order.Init()
		s.entries = make(map[string]*list.Element)
		s.hits, s.misses, s.evictions = 0, 0, 0
		s.mu.Unlock()
	}
}

// Stats reports cumulative hit/miss/eviction counts since the last
// Purge, aggregated across shards. The three numbers are summed shard
// by shard without a global lock, so under concurrent traffic they form
// a near-point-in-time aggregate, not an atomic snapshot.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	for _, s := range c.shards {
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		evictions += s.evictions
		s.mu.Unlock()
	}
	return hits, misses, evictions
}
