// Package service implements powerperfd, the long-running measurement
// daemon: an HTTP JSON API over the study harness with a sharded,
// singleflight-deduplicated, LRU-bounded measurement cache.
//
// The cache is sound because of the repository's determinism contract
// (DESIGN.md): a measurement is a pure function of the (benchmark,
// processor, config, seed) tuple — every run derives its noise and
// jitter streams from that identity, never from shared state — so a
// cached cell is bit-identical to a recomputed one, and identical
// requests can be computed once and served from memory forever.
package service

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// cacheShards is the shard count: enough to keep lock contention off
// the request path at the tested concurrency (32+ clients), small
// enough that per-shard LRU capacity stays meaningful. It must be a
// power of two, because shardFor masks.
const cacheShards = 16

// Cache is a sharded LRU keyed by string with singleflight fills: the
// first requester of a key computes it while concurrent requesters for
// the same key wait for that one computation. Failed fills are not
// cached — errors are observed by the waiters of that fill and the next
// request recomputes.
type Cache struct {
	shards []shard
	// perShard is the max completed entries per shard; total capacity is
	// perShard * len(shards).
	perShard int

	hits      atomic.Int64 // served from a completed entry
	misses    atomic.Int64 // fills started
	coalesced atomic.Int64 // waited on another requester's fill
	evictions atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // front = most recently used; values are *entry
}

// entry is one cache slot. done is closed when the fill completes; val
// and err are immutable afterwards.
type entry struct {
	key  string
	done chan struct{}
	val  any
	err  error
}

func (e *entry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// NewCache builds a cache bounded to roughly capacity completed entries
// (rounded up to a multiple of the shard count). capacity <= 0 selects
// an effectively unbounded cache.
func NewCache(capacity int) *Cache {
	per := 0
	if capacity > 0 {
		per = (capacity + cacheShards - 1) / cacheShards
	}
	c := &Cache{perShard: per, shards: make([]shard, cacheShards)}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
	}
	return c
}

// shardFor routes a key to its shard with an inlined FNV-1a; the
// stdlib's fnv.New32a allocates its state on every call, which put a
// heap allocation on every cache lookup of the serving path. The mask
// replaces the former modulus and requires len(shards) to be a power of
// two, which cacheShards is.
func (c *Cache) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h&uint32(len(c.shards)-1)]
}

// Outcome classifies how GetOrComputeOutcome satisfied a request; the
// service annotates each cell's span with it and feeds the fill-
// duration histogram on misses.
type Outcome int

const (
	// OutcomeHit served a completed cache entry.
	OutcomeHit Outcome = iota
	// OutcomeMiss started (and completed) the fill itself.
	OutcomeMiss
	// OutcomeCoalesced waited on another requester's in-flight fill.
	OutcomeCoalesced
)

// String renders the outcome for span attributes and log fields.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	case OutcomeCoalesced:
		return "coalesced"
	}
	return "unknown"
}

// GetOrCompute returns the cached value for key, or computes it via fn.
// Exactly one concurrent caller runs fn per key (singleflight); the
// others wait for it, subject to their own ctx. The computing caller is
// not cancellable once the fill starts — a deterministic fill is worth
// completing because every future request for the key reuses it.
func (c *Cache) GetOrCompute(ctx context.Context, key string, fn func() (any, error)) (any, error) {
	v, _, err := c.GetOrComputeOutcome(ctx, key, fn)
	return v, err
}

// GetOrComputeOutcome is GetOrCompute reporting how the request was
// satisfied, so callers can attribute latency to fills versus waits.
func (c *Cache) GetOrComputeOutcome(ctx context.Context, key string, fn func() (any, error)) (any, Outcome, error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*entry)
		if e.completed() {
			s.lru.MoveToFront(el)
			s.mu.Unlock()
			c.hits.Add(1)
			return e.val, OutcomeHit, e.err
		}
		s.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-e.done:
			return e.val, OutcomeCoalesced, e.err
		case <-ctx.Done():
			return nil, OutcomeCoalesced, ctx.Err()
		}
	}
	e := &entry{key: key, done: make(chan struct{})}
	el := s.lru.PushFront(e)
	s.entries[key] = el
	s.mu.Unlock()
	c.misses.Add(1)

	e.val, e.err = fn()
	close(e.done)

	s.mu.Lock()
	if e.err != nil {
		// Errors are not cached: drop the entry so the next request
		// retries the fill.
		if cur, ok := s.entries[key]; ok && cur == el {
			s.lru.Remove(el)
			delete(s.entries, key)
		}
	} else if c.perShard > 0 {
		// Evict completed entries from the LRU tail. In-flight fills are
		// pinned: they rotate to the front, and the bounded scan keeps the
		// loop finite even if every resident entry is in flight.
		for scanned, max := 0, s.lru.Len(); s.lru.Len() > c.perShard && scanned < max; scanned++ {
			tail := s.lru.Back()
			te := tail.Value.(*entry)
			if !te.completed() {
				s.lru.MoveToFront(tail)
				continue
			}
			s.lru.Remove(tail)
			delete(s.entries, te.key)
			c.evictions.Add(1)
		}
	}
	s.mu.Unlock()
	return e.val, OutcomeMiss, e.err
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	n := 0
	for _, l := range c.ShardLens() {
		n += l
	}
	return n
}

// ShardLens returns the resident entry count of every shard, in shard
// order; Stats reports it as the per-shard occupancy.
func (c *Cache) ShardLens() []int {
	lens := make([]int, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		lens[i] = s.lru.Len()
		s.mu.Unlock()
	}
	return lens
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Coalesced int64
	Evictions int64
	Entries   int
	Shards    []int
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	shards := c.ShardLens()
	n := 0
	for _, l := range shards {
		n += l
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
		Shards:    shards,
	}
}
