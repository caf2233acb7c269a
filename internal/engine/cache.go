package engine

import (
	"context"
	"sync"
	"sync/atomic"
)

// cacheShards is the fixed shard count of a RunCache. Sharding bounds lock
// contention when many workers consult the cache at once; 64 comfortably
// exceeds any realistic worker-pool width.
const cacheShards = 64

// RunCacher is the cache contract the engine threads through task contexts.
// The in-memory RunCache below is the canonical single-tier implementation;
// internal/diskcache composes it with a disk-persistent object store, and
// internal/journal decorates any implementation so every Put is also an
// fsync'd journal append — all behind the same interface, so the engine,
// harness, facade and daemon are indifferent to how many tiers sit behind
// a Get or who observes a Put.
//
// Implementations must be safe for concurrent use, must hand out only
// immutable values (a hit is shared by every caller that asks for its
// key), and must count every Get as exactly one hit or one miss — the
// engine attributes per-Execute deltas of Hits/Misses to its Stats.
type RunCacher interface {
	// Get returns the cached value for key, counting a hit or a miss.
	Get(key string) (any, bool)
	// Put stores v under key, overwriting any previous entry.
	Put(key string, v any)
	// Hits and Misses return cumulative lookup counts.
	Hits() int64
	Misses() int64
}

// RunCache is a content-addressed, concurrency-safe result cache shared by
// harness and facade runs. Keys are full-fidelity strings (see core.RunKey):
// hashing only routes a key to a shard, equality is always decided on the
// complete key, so hash collisions can never alias two distinct runs.
//
// Values are opaque to the engine; callers store immutable summaries so a
// hit can be handed to any number of concurrent readers. A nil *RunCache is a valid no-op
// cache: Get always misses without counting, Put discards.
type RunCache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[string]any
}

// NewRunCache returns an empty cache.
func NewRunCache() *RunCache {
	c := &RunCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[string]any)
	}
	return c
}

// shardOf routes a key to its shard with an inline FNV-1a hash.
func (c *RunCache) shardOf(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h%cacheShards]
}

// Get returns the cached value for key, counting the lookup as a hit or
// miss. Nil-safe: a nil cache misses silently.
func (c *RunCache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shardOf(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put stores v under key, overwriting any previous entry. Nil-safe.
func (c *RunCache) Put(key string, v any) {
	if c == nil {
		return
	}
	sh := c.shardOf(key)
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
}

// Hits returns the cumulative hit count (0 for a nil cache).
func (c *RunCache) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses returns the cumulative miss count (0 for a nil cache).
func (c *RunCache) Misses() int64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// Len returns the number of cached entries.
func (c *RunCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// WithRunCache attaches a shared run cache to the engine: a plain *RunCache
// or any multi-tier RunCacher (see internal/diskcache). Every task context
// of every Execute call exposes it via RunCacheFrom, and the engine's Stats
// report the hits and misses its Execute calls contributed.
func WithRunCache(c RunCacher) Option {
	return func(e *Engine) { e.cache = c }
}

// runCacheKey carries the engine's run cache through task contexts.
type runCacheKey struct{}

// RunCacheFrom returns the cache the running engine exposes to its tasks,
// or nil when the task context has none (caching disabled).
func RunCacheFrom(ctx context.Context) RunCacher {
	c, _ := ctx.Value(runCacheKey{}).(RunCacher)
	return c
}
