package service

import (
	"container/list"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/perm"
)

// lruCache maps recently queried permutations to their synthesis
// results. Circuits are immutable once synthesized (callers receive the
// cached slice and must not mutate it — the package API never does).
// Deterministic errors (beyond-horizon, invalid function) are cached
// alongside successes: re-asking an impossible query is as common as
// re-asking a possible one.
//
// The cache is split into a power-of-two number of shards, each a plain
// LRU under its own mutex on its own cache lines, and keyHash picks a
// key's shard. Concurrent hits on keys in different shards take
// different locks: a hit costs one mostly uncontended mutex acquisition
// and one list move inside its shard. Eviction is exact LRU within a
// shard and approximate across shards; a cache below
// 2·lruShardEntries entries has a single shard and keeps exact LRU
// order.
type lruCache struct {
	shards []lruShard
	shift  uint // keyHash(key) >> shift indexes shards
}

// lruShardEntries is the capacity a shard aims for: the shard count is
// the largest power of two, at most lruMaxShards, that leaves every
// shard at least this many entries — 1 shard below 512 entries, 16 at
// DefaultCacheSize.
const (
	lruShardEntries = 256
	lruMaxShards    = 16
)

// cacheLine pads concurrently written structures apart so that two
// cores updating neighbouring shards or counter stripes do not share a
// cache line.
const cacheLine = 64

type lruShard struct {
	mu  sync.Mutex
	cap int
	m   map[perm.Perm]*list.Element
	l   list.List // front = most recently used
	_   [cacheLine]byte
}

type lruEntry struct {
	key  perm.Perm
	c    circuit.Circuit
	info core.Info
	err  error
}

// keyHash spreads a permutation's bits for shard and counter-stripe
// selection (Fibonacci hashing: the top bits of the product depend on
// every nibble of the key).
func keyHash(key perm.Perm) uint64 { return uint64(key) * 0x9E3779B97F4A7C15 }

func newLRU(capacity int) *lruCache {
	capacity = max(capacity, 1)
	n, bits := 1, uint(0)
	for n < lruMaxShards && 2*n*lruShardEntries <= capacity {
		n, bits = 2*n, bits+1
	}
	c := &lruCache{shards: make([]lruShard, n), shift: 64 - bits}
	for i := range c.shards {
		// Spread the remainder so the shard capacities sum to capacity.
		sh := &c.shards[i]
		sh.cap = capacity / n
		if i < capacity%n {
			sh.cap++
		}
		sh.m = make(map[perm.Perm]*list.Element, sh.cap)
	}
	return c
}

func (c *lruCache) shard(key perm.Perm) *lruShard {
	return &c.shards[keyHash(key)>>c.shift]
}

func (c *lruCache) get(key perm.Perm) (circuit.Circuit, core.Info, error, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	el, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		return nil, core.Info{}, nil, false
	}
	sh.l.MoveToFront(el)
	e := el.Value.(*lruEntry)
	sh.mu.Unlock()
	return e.c, e.info, e.err, true
}

func (c *lruCache) put(key perm.Perm, circ circuit.Circuit, info core.Info, err error) {
	e := &lruEntry{key: key, c: circ, info: info, err: err}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		sh.l.MoveToFront(el)
		el.Value = e
		return
	}
	if sh.l.Len() >= sh.cap {
		old := sh.l.Back()
		sh.l.Remove(old)
		delete(sh.m, old.Value.(*lruEntry).key)
	}
	sh.m[key] = sh.l.PushFront(e)
}

// len reports the number of cached entries.
func (c *lruCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.l.Len()
		sh.mu.Unlock()
	}
	return n
}
