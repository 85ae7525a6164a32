package hashtab

import (
	"math/rand"
	"sync"
	"testing"
)

func shardedRandKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = rng.Uint64()
		}
	}
	return keys
}

func TestShardedBasics(t *testing.T) {
	st := NewShardedWithShards(16, 8)
	if st.ShardCount() != 8 {
		t.Fatalf("shard count = %d, want 8", st.ShardCount())
	}
	keys := shardedRandKeys(5000, 1)
	ref := make(map[uint64]uint16, len(keys))
	for i, k := range keys {
		v := uint16(i)
		if _, ok := ref[k]; !ok {
			ref[k] = v
		}
		existing, inserted := st.Insert(k, v)
		if _, dup := ref[k]; dup && !inserted && existing == v {
			t.Fatalf("duplicate insert of %#x reported inserted", k)
		}
	}
	if st.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := st.Lookup(k)
		if !ok || got != v {
			t.Fatalf("Lookup(%#x) = %d,%v; want %d", k, got, ok, v)
		}
	}
	if st.Contains(0) {
		t.Fatal("key 0 reported present")
	}
	seen := 0
	st.ForEach(func(k uint64, v uint16) bool {
		seen++
		return true
	})
	if seen != st.Len() {
		t.Fatalf("ForEach visited %d of %d", seen, st.Len())
	}
}

func TestShardedInsertBatch(t *testing.T) {
	st := NewShardedWithShards(4, 4)
	keys := shardedRandKeys(1000, 2)
	// Introduce in-batch duplicates: every 10th key repeats its
	// predecessor. The first occurrence must win.
	for i := 9; i < len(keys); i += 10 {
		keys[i] = keys[i-1]
	}
	vals := make([]uint16, len(keys))
	for i := range vals {
		vals[i] = uint16(i)
	}
	inserted := make([]bool, len(keys))
	n := st.InsertBatch(keys, vals, inserted)
	distinct := make(map[uint64]int, len(keys))
	for i, k := range keys {
		if _, ok := distinct[k]; !ok {
			distinct[k] = i
		}
	}
	if n != len(distinct) || st.Len() != len(distinct) {
		t.Fatalf("InsertBatch inserted %d (Len %d), want %d", n, st.Len(), len(distinct))
	}
	for i, k := range keys {
		wantIns := distinct[k] == i
		if inserted[i] != wantIns {
			t.Fatalf("inserted[%d] = %v, want %v", i, inserted[i], wantIns)
		}
	}
	for k, i := range distinct {
		got, ok := st.Lookup(k)
		if !ok || got != uint16(i) {
			t.Fatalf("Lookup(%#x) = %d,%v; want first-writer value %d", k, got, ok, i)
		}
	}
	// A second batch of the same keys must insert nothing.
	if n := st.InsertBatch(keys, vals, inserted); n != 0 {
		t.Fatalf("re-batch inserted %d entries", n)
	}
}

// TestShardedConcurrentInserts hammers one table from many goroutines
// with overlapping key sets (run with -race). Every key must be present
// exactly once afterwards and hold one of the racing writers' values.
func TestShardedConcurrentInserts(t *testing.T) {
	st := NewSharded(1)
	keys := shardedRandKeys(20000, 3)
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := make([]uint16, 0, 128)
			batch := make([]uint64, 0, 128)
			ins := make([]bool, 128)
			// Each writer covers the whole key set, offset so batches
			// collide across goroutines.
			for i := range keys {
				j := (i + w*2500) % len(keys)
				batch = append(batch, keys[j])
				vals = append(vals, uint16(w))
				if len(batch) == 128 {
					st.InsertBatch(batch, vals, ins[:len(batch)])
					batch, vals = batch[:0], vals[:0]
				}
			}
			if len(batch) > 0 {
				st.InsertBatch(batch, vals, ins[:len(batch)])
			}
		}(w)
	}
	wg.Wait()
	distinct := make(map[uint64]struct{}, len(keys))
	for _, k := range keys {
		distinct[k] = struct{}{}
	}
	if st.Len() != len(distinct) {
		t.Fatalf("Len = %d after concurrent inserts, want %d", st.Len(), len(distinct))
	}
	for k := range distinct {
		v, ok := st.Lookup(k)
		if !ok || v >= writers {
			t.Fatalf("Lookup(%#x) = %d,%v after concurrent inserts", k, v, ok)
		}
	}
}

// TestShardedFrozenConcurrentLookups reads a built sharded table and the
// frozen table Compact lays out from it from many goroutines at once
// (run with -race): the locked sharded reads and the lock-free frozen
// probes must both find every stored key.
func TestShardedFrozenConcurrentLookups(t *testing.T) {
	st := NewSharded(1 << 10)
	keys := shardedRandKeys(4096, 4)
	for i, k := range keys {
		st.Insert(k, uint16(i))
	}
	ft, err := Compact(st)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += 16 {
				if !st.Contains(keys[i]) {
					errs <- "sharded lookup missed a stored key"
					return
				}
				if v, ok := ft.Lookup(keys[i]); !ok || v != uint16(i) {
					errs <- "frozen lookup missed a stored key"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestShardedGrowth starts tiny and inserts far past the initial
// capacity; per-shard growth must preserve every entry.
func TestShardedGrowth(t *testing.T) {
	st := NewShardedWithShards(1, 2)
	keys := shardedRandKeys(50000, 5)
	for i, k := range keys {
		st.Insert(k, uint16(i))
	}
	for i, k := range keys {
		got, ok := st.Lookup(k)
		if !ok {
			t.Fatalf("key %#x lost after growth", k)
		}
		_ = got
		_ = i
	}
	if lf := st.LoadFactor(); lf <= 0 || lf > maxLoadFactor {
		t.Fatalf("load factor %f out of range", lf)
	}
}

// TestShardedMatchesFlat: a sharded table and a flat table fed the same
// stream must agree on every membership and value query.
func TestShardedMatchesFlat(t *testing.T) {
	st := NewSharded(64)
	flat := New(64)
	keys := shardedRandKeys(10000, 6)
	for i, k := range keys {
		v := uint16(i & 0x7FFF)
		_, si := st.Insert(k, v)
		_, fi := flat.Insert(k, v)
		if si != fi {
			t.Fatalf("insert disagreement on %#x", k)
		}
	}
	if st.Len() != flat.Len() {
		t.Fatalf("Len %d vs flat %d", st.Len(), flat.Len())
	}
	flat.ForEach(func(k uint64, v uint16) bool {
		got, ok := st.Lookup(k)
		if !ok || got != v {
			t.Fatalf("sharded disagrees with flat on %#x", k)
		}
		return true
	})
}
