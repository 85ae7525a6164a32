package hashtab

import (
	"math/rand"
	"sort"
	"testing"
)

// testEntries returns n distinct nonzero keys with values, deterministic
// per seed.
func testEntries(n int, seed int64) ([]uint64, []uint16) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	vals := make([]uint16, 0, n)
	for len(keys) < n {
		k := rng.Uint64() | 1
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		vals = append(vals, uint16(rng.Intn(1<<16)))
	}
	return keys, vals
}

// TestCompactCanonicalLayout: the frozen arrays must be a pure function
// of the stored entry set — two tables holding the same entries but
// built by different insertion histories must compact to identical
// bytes. This is the invariant the out-of-core builder relies on to
// emit stores byte-identical to the in-memory path.
func TestCompactCanonicalLayout(t *testing.T) {
	keys, vals := testEntries(5000, 1)
	a := NewShardedWithShards(len(keys), 16)
	for i, k := range keys {
		a.Insert(k, vals[i])
	}
	b := NewShardedWithShards(4, 16) // different capacity hint: forces different grow history
	perm := rand.New(rand.NewSource(2)).Perm(len(keys))
	for _, i := range perm {
		b.Insert(keys[i], vals[i])
	}
	fa, err := Compact(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Compact(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(fa.RawKeys()) != len(fb.RawKeys()) {
		t.Fatalf("slot counts differ: %d vs %d", len(fa.RawKeys()), len(fb.RawKeys()))
	}
	for i := range fa.RawKeys() {
		if fa.RawKeys()[i] != fb.RawKeys()[i] || fa.RawVals()[i] != fb.RawVals()[i] {
			t.Fatalf("slot %d differs: (%#x,%d) vs (%#x,%d)",
				i, fa.RawKeys()[i], fa.RawVals()[i], fb.RawKeys()[i], fb.RawVals()[i])
		}
	}
	// And every key still resolves.
	for i, k := range keys {
		if v, ok := fa.Lookup(k); !ok || v != vals[i] {
			t.Fatalf("key %#x: got (%d,%v), want (%d,true)", k, v, ok, vals[i])
		}
	}
}

// TestCompactSplitCanonicalLayout: entry order into CompactSplit must not
// affect the laid-out arrays.
func TestCompactSplitCanonicalLayout(t *testing.T) {
	keys, vals := testEntries(3000, 3)
	const shards, splitN = 8, 4
	shift := uint(64 - log2(shards*splitN))
	for idx := 0; idx < splitN; idx++ {
		var rk []uint64
		var rv []uint16
		for i, k := range keys {
			if int(Hash64Shift(k)>>shift)/shards == idx {
				rk = append(rk, k)
				rv = append(rv, vals[i])
			}
		}
		fa, err := CompactSplit(append([]uint64(nil), rk...), append([]uint16(nil), rv...), shards, splitN, idx)
		if err != nil {
			t.Fatal(err)
		}
		// Shuffle and re-lay.
		perm := rand.New(rand.NewSource(int64(idx))).Perm(len(rk))
		sk := make([]uint64, len(rk))
		sv := make([]uint16, len(rk))
		for j, i := range perm {
			sk[j], sv[j] = rk[i], rv[i]
		}
		fb, err := CompactSplit(sk, sv, shards, splitN, idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fa.RawKeys() {
			if fa.RawKeys()[i] != fb.RawKeys()[i] || fa.RawVals()[i] != fb.RawVals()[i] {
				t.Fatalf("split %d slot %d differs", idx, i)
			}
		}
	}
}

// TestFrozenSlotsPerShard: the exported sizing helper must agree with
// what Compact actually chooses.
func TestFrozenSlotsPerShard(t *testing.T) {
	for _, n := range []int{0, 1, 13, 14, 100, 871, 872} {
		keys, vals := testEntries(n, int64(n))
		st := NewShardedWithShards(n, 1)
		for i, k := range keys {
			st.Insert(k, vals[i])
		}
		ft, err := Compact(st)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ft.SlotsPerShard(), FrozenSlotsPerShard(n); got != want {
			t.Fatalf("n=%d: Compact chose %d slots/shard, helper says %d", n, got, want)
		}
	}
}

// TestContainsBatchSorted: the run-sorted probe must agree with Contains
// and touch every key exactly once.
func TestContainsBatchSorted(t *testing.T) {
	keys, vals := testEntries(4000, 7)
	st := NewShardedWithShards(len(keys), 32)
	for i := 0; i < len(keys)/2; i++ {
		st.Insert(keys[i], vals[i])
	}
	probe := append([]uint64(nil), keys...)
	sort.Slice(probe, func(a, b int) bool {
		sa, sb := Hash64Shift(probe[a])>>st.shift, Hash64Shift(probe[b])>>st.shift
		if sa != sb {
			return sa < sb
		}
		return probe[a] < probe[b]
	})
	present := make([]bool, len(probe))
	n := st.ContainsBatchSorted(probe, present)
	if n != len(keys)/2 {
		t.Fatalf("present count = %d, want %d", n, len(keys)/2)
	}
	for i, k := range probe {
		if present[i] != st.Contains(k) {
			t.Fatalf("key %#x: batch says %v, Contains says %v", k, present[i], st.Contains(k))
		}
	}
	// An out-of-order batch must panic rather than silently mis-probe.
	if len(probe) > 2 {
		bad := []uint64{probe[len(probe)-1], probe[0]}
		if Hash64Shift(bad[0])>>st.shift > Hash64Shift(bad[1])>>st.shift {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-order batch did not panic")
				}
			}()
			st.ContainsBatchSorted(bad, make([]bool, 2))
		}
	}
}
