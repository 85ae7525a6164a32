package service

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perm"
)

// TestUncachedQueryAllocs guards the local uncached query path against
// allocation creep: a cache-bypassing query against frozen tables
// allocates only the returned circuit's slices (front/back collection
// plus the joined output and their occasional append growth — at most
// 8 allocations for a meet-in-the-middle answer, fewer for direct
// lookups). This is the 1.8 µs/op path; a stray per-query buffer would
// show up here before it shows up in the benchmark noise.
func TestUncachedQueryAllocs(t *testing.T) {
	res := fixtureTables(t)
	rng := rand.New(rand.NewSource(42))
	specs := make([]perm.Perm, 16)
	for i := range specs {
		specs[i] = randomCircuitPerm(rng, 2+rng.Intn(6))
	}
	svc, err := New(Config{Tables: res, QueryWorkers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	for _, f := range specs {
		got := testing.AllocsPerRun(100, func() {
			if _, _, err := svc.Synthesize(context.Background(), f); err != nil {
				t.Fatal(err)
			}
		})
		if got > 8 {
			t.Errorf("spec %v: %.1f allocs per uncached query, want ≤ 8", f, got)
		}
	}
}

// TestCachedQueryAllocs is the cached path's zero-allocation guard: a
// result-cache hit allocates nothing, with or without a DefaultTimeout
// (whose timer context only a miss arms).
func TestCachedQueryAllocs(t *testing.T) {
	res := fixtureTables(t)
	rng := rand.New(rand.NewSource(42))
	specs := make([]perm.Perm, 16)
	for i := range specs {
		specs[i] = randomCircuitPerm(rng, 2+rng.Intn(6))
	}
	for _, timeout := range []time.Duration{0, 30 * time.Second} {
		svc, err := New(Config{Tables: res, QueryWorkers: 1, DefaultTimeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range specs { // warm the cache
			if _, _, err := svc.Synthesize(context.Background(), f); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(100, func() {
			for _, f := range specs {
				if _, _, err := svc.Synthesize(context.Background(), f); err != nil {
					t.Fatal(err)
				}
			}
		})
		svc.Close(context.Background())
		if got != 0 {
			t.Errorf("DefaultTimeout %v: %.1f allocs per %d cached queries, want 0", timeout, got, len(specs))
		}
	}
}

// BenchmarkServiceQueries measures serving throughput against the k = 4
// fixture tables in the two regimes that bracket production traffic:
// every query a cache hit (steady state for hot specifications) and
// every query a miss (cold or adversarial traffic, each answered by the
// frozen tables). RunParallel drives one client per GOMAXPROCS; QPS is
// the inverse of the reported ns/op. In "cached" every client walks the
// specs from the first one, through a cache sized to the working set
// (one shard), so the clients mostly ask for the same key at the same
// time. "cached-default" is the peephole shape: the default capacity
// (16 shards) and each client walking from its own offset, so hits on
// different keys take different locks.
func BenchmarkServiceQueries(b *testing.B) {
	res := fixtureTables(b)
	rng := rand.New(rand.NewSource(42))
	specs := make([]perm.Perm, 256)
	for i := range specs {
		specs[i] = randomCircuitPerm(rng, 2+rng.Intn(6))
	}

	cached := func(b *testing.B, cacheSize, stride int) {
		svc, err := New(Config{Tables: res, QueryWorkers: 1, CacheSize: cacheSize})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close(context.Background())
		for _, f := range specs { // warm the cache
			if _, _, err := svc.Synthesize(context.Background(), f); err != nil {
				b.Fatal(err)
			}
		}
		var clients atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(clients.Add(1)-1) * stride
			for pb.Next() {
				if _, _, err := svc.Synthesize(context.Background(), specs[i%len(specs)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
	b.Run("cached", func(b *testing.B) { cached(b, len(specs), 0) })
	b.Run("cached-default", func(b *testing.B) { cached(b, 0, 61) })

	b.Run("uncached", func(b *testing.B) {
		svc, err := New(Config{Tables: res, QueryWorkers: 1, CacheSize: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close(context.Background())
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, _, err := svc.Synthesize(context.Background(), specs[i%len(specs)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}
