package bfs

import (
	"testing"

	"repro/internal/canon"
	"repro/internal/perm"
)

// levelReps copies cost level c of res into a slice.
func levelReps(res *Result, c int) []perm.Perm {
	lvl := res.Level(c)
	out := make([]perm.Perm, lvl.Len())
	for i := range out {
		out[i] = lvl.At(i)
	}
	return out
}

// buildBytes is the build state's footprint, counted the way
// Result.MemoryBytes counts the frozen layout: hash-table slots plus the
// level lists (8 bytes per representative).
func buildBytes(b *builder) int64 {
	n := b.table.MemoryBytes()
	for _, lvl := range b.levels {
		n += int64(len(lvl)) * 8
	}
	return n
}

// TestCompactPreservesQueries checks the Result that Search returns
// against the build state it was compacted from: levels (content and
// order), values, costs, FullCounts, containment of class members and
// of absent functions, and memory accounting.
func TestCompactPreservesQueries(t *testing.T) {
	b, err := build(GateAlphabet(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An out-of-horizon function, taken from the build table's view.
	absent := perm.Perm(0)
	for x := uint64(1); x < 1<<16 && absent == 0; x++ {
		p := perm.Perm(uint64(perm.Identity) ^ x<<1 ^ x<<17)
		if p.IsValid() && !b.table.Contains(uint64(canon.Rep(p))) {
			absent = p
		}
	}
	if absent == 0 {
		t.Fatal("could not find an absent permutation")
	}
	fullCounts := make([]int64, len(b.levels))
	for c, lvl := range b.levels {
		for _, rep := range lvl {
			fullCounts[c] += int64(canon.ClassSize(rep))
		}
	}
	liveBytes := buildBytes(b)
	total := b.table.Len()

	res, err := b.freeze()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalStored() != total {
		t.Fatalf("entries %d, want %d", res.TotalStored(), total)
	}
	ft := res.Frozen
	if res.Compact() != nil || res.Frozen != ft {
		t.Fatal("Compact is not a no-op")
	}
	for c := 0; c <= res.MaxCost; c++ {
		lvl := res.Level(c)
		if lvl.Len() != len(b.levels[c]) {
			t.Fatalf("level %d length %d, want %d", c, lvl.Len(), len(b.levels[c]))
		}
		for i := 0; i < lvl.Len(); i++ {
			rep := b.levels[c][i]
			if lvl.At(i) != rep {
				t.Fatalf("level %d entry %d reordered", c, i)
			}
			want, _ := b.table.Lookup(uint64(rep))
			if got, ok := res.LookupRaw(uint64(rep)); !ok || got != want {
				t.Fatalf("level %d entry %d value %#x,%v, want %#x", c, i, got, ok, want)
			}
			if cost, ok := res.CostOf(rep); !ok || cost != c {
				t.Fatalf("CostOf(level %d rep) = %d,%v", c, cost, ok)
			}
		}
		if res.FullCount(c) != fullCounts[c] {
			t.Fatalf("FullCount(%d) = %d, want %d", c, res.FullCount(c), fullCounts[c])
		}
	}
	// Class members still resolve through canonicalization.
	rep := b.levels[3][0]
	member := perm.Conjugate(rep, canon.Shuffle(7))
	if !res.Contains(member) {
		t.Fatal("class member lost by compaction")
	}
	if cost, ok := res.CostOf(member.Inverse()); !ok || cost != 3 {
		t.Fatalf("inverse member cost %d,%v", cost, ok)
	}
	if res.Contains(absent) {
		t.Fatal("absent function appeared after compaction")
	}
	if !res.Contains(perm.Identity) {
		t.Fatal("identity lost by compaction")
	}
	// Uniform shard sizing can round the table up at pow2 boundaries, so
	// the guarantee at arbitrary k is "same ballpark"; the realistic
	// saving is pinned at k = 5 by TestCompactMemorySavings.
	frozenBytes := res.MemoryBytes()
	if float64(frozenBytes) > 1.25*float64(liveBytes) {
		t.Fatalf("compact layout ballooned: %d vs %d bytes", frozenBytes, liveBytes)
	}
	if st := res.TableStats(); st.Entries != total {
		t.Fatalf("TableStats entries %d, want %d", st.Entries, total)
	}
}

// TestCompactMemorySavings quantifies the saving of compaction at a real
// table size: replacing the 8-byte-per-representative level lists with
// the 4-byte slot index trims the build footprint by ~20% (20 → 16
// bytes/rep at k = 5). The larger cold-start claim — resident heap per
// representative down ≥ 30% — belongs to the mmap path, where table and
// index are file-backed and the heap cost per representative is near
// zero; tablesio's BenchmarkColdStart measures that via runtime.MemStats.
func TestCompactMemorySavings(t *testing.T) {
	b, err := build(GateAlphabet(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := buildBytes(b)
	res, err := b.freeze()
	if err != nil {
		t.Fatal(err)
	}
	after := res.MemoryBytes()
	saved := float64(before-after) / float64(before)
	t.Logf("k=5: %d → %d bytes per table set (%.0f%% saved, %.1f → %.1f B/rep)",
		before, after, saved*100,
		float64(before)/float64(res.TotalStored()), float64(after)/float64(res.TotalStored()))
	if saved < 0.15 {
		t.Fatalf("compact layout saves only %.0f%%, want ≥ 15%%", saved*100)
	}
}

func TestSearchRejectsOverdeepHorizon(t *testing.T) {
	if _, err := Search(GateAlphabet(), MaxPackedCost+1, nil); err == nil {
		t.Fatal("horizon beyond the packed-cost limit accepted")
	}
}

func TestFromFrozenValidation(t *testing.T) {
	res, err := Search(GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ft, idx, counts := res.Layout()
	if _, err := FromFrozen(res.Alphabet, res.MaxCost, true, ft, idx, counts, true); err != nil {
		t.Fatalf("valid frozen parts rejected: %v", err)
	}
	// A duplicated index entry must be caught by verification.
	bad := append([]uint32(nil), idx...)
	bad[1] = bad[0]
	if _, err := FromFrozen(res.Alphabet, res.MaxCost, true, ft, bad, counts, true); err == nil {
		t.Fatal("duplicate slot index accepted")
	}
	// Shifted level counts mis-tag costs.
	badCounts := append([]int(nil), counts...)
	badCounts[1]--
	badCounts[2]++
	if _, err := FromFrozen(res.Alphabet, res.MaxCost, true, ft, idx, badCounts, true); err == nil {
		t.Fatal("cost-shifted level counts accepted")
	}
	// Without verification the same parts are taken on trust.
	if _, err := FromFrozen(res.Alphabet, res.MaxCost, true, ft, bad, counts, false); err != nil {
		t.Fatalf("unverified assembly failed: %v", err)
	}
}
