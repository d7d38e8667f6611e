package service

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
)

// cacheKey identifies one cached solution: the canonical problem hash, the
// operation, and the operation's scalar parameter (delay budget for
// OpMaxFrameRate, sweep resolution for OpFront, 0 for OpMinDelay).
type cacheKey struct {
	hash  string
	op    Op
	param float64
}

// CacheStats reports solution-cache counters, aggregated across shards.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// HitRatio is Hits / (Hits + Misses), 0 before any lookup. With the
	// cache disabled every lookup is a miss, so the ratio reads 0.
	HitRatio float64 `json:"hit_ratio"`
	Entries  int     `json:"entries"`
	Capacity int     `json:"capacity"`
	Shards   int     `json:"shards"`
}

// lruShard is one independently locked LRU segment.
type lruShard struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[cacheKey]*list.Element

	hits, misses, evictions atomic.Uint64
}

type lruEntry struct {
	key cacheKey
	sol *solution
}

func (s *lruShard) get(k cacheKey) (*solution, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.order.MoveToFront(el)
	s.hits.Add(1)
	return el.Value.(*lruEntry).sol, true
}

func (s *lruShard) put(k cacheKey, sol *solution) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		el.Value.(*lruEntry).sol = sol
		s.order.MoveToFront(el)
		return
	}
	s.items[k] = s.order.PushFront(&lruEntry{key: k, sol: sol})
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*lruEntry).key)
		s.evictions.Add(1)
	}
}

func (s *lruShard) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// cache is a sharded LRU over solved planning requests. A nil cache (or one
// built with capacity 0) is disabled: every get is a recorded miss and puts
// are dropped, which keeps the solver code path uniform.
type cache struct {
	shards   []*lruShard
	capacity int
	disabled atomic.Uint64 // misses recorded while disabled
}

// newCache builds a cache of the given total capacity split across shards;
// the first capacity%shards shards take one extra entry, so Entries can
// never exceed capacity. Capacity 0 returns a disabled cache.
func newCache(capacity, shards int) *cache {
	c := &cache{capacity: capacity}
	if capacity <= 0 {
		return c
	}
	if shards > capacity {
		shards = capacity
	}
	base, extra := capacity/shards, capacity%shards
	c.shards = make([]*lruShard, shards)
	for i := range c.shards {
		perShard := base
		if i < extra {
			perShard++
		}
		c.shards[i] = &lruShard{
			cap:   perShard,
			order: list.New(),
			items: make(map[cacheKey]*list.Element),
		}
	}
	return c
}

// shardFor picks the shard owning k by FNV-1a over the full key.
func (c *cache) shardFor(k cacheKey) *lruShard {
	h := fnv.New32a()
	h.Write([]byte(k.hash))
	h.Write([]byte(k.op))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(k.param))
	h.Write(b[:])
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

func (c *cache) get(k cacheKey) (*solution, bool) {
	if len(c.shards) == 0 {
		c.disabled.Add(1)
		return nil, false
	}
	return c.shardFor(k).get(k)
}

func (c *cache) put(k cacheKey, sol *solution) {
	if len(c.shards) == 0 {
		return
	}
	c.shardFor(k).put(k, sol)
}

func (c *cache) stats() CacheStats {
	st := CacheStats{
		Capacity: c.capacity,
		Shards:   len(c.shards),
		Misses:   c.disabled.Load(),
	}
	for _, s := range c.shards {
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Evictions += s.evictions.Load()
		st.Entries += s.len()
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		st.HitRatio = float64(st.Hits) / float64(lookups)
	}
	return st
}
