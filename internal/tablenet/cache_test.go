package tablenet

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashtab"
	"repro/internal/perm"
)

func TestHotKeyCacheBasics(t *testing.T) {
	c := newHotKeyCache(64)
	if _, _, ok := c.get(42); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put(42, 7, true)
	c.put(43, 0, false) // negative result: cacheable forever
	if v, f, ok := c.get(42); !ok || !f || v != 7 {
		t.Fatalf("get(42) = (%d, %v, %v)", v, f, ok)
	}
	if _, f, ok := c.get(43); !ok || f {
		t.Fatalf("negative entry lost: found=%v ok=%v", f, ok)
	}
	// Re-inserting an immutable key is a no-op, never a corruption.
	c.put(42, 7, true)
	if v, _, ok := c.get(42); !ok || v != 7 {
		t.Fatalf("reinsert broke entry: (%d, %v)", v, ok)
	}
}

func TestHotKeyCacheEvictsWithinSet(t *testing.T) {
	// A minimal cache: one set of hotWays slots. Insert more keys than
	// ways; recently-used keys must survive over stale ones.
	c := newHotKeyCache(1)
	if c.mask != 0 {
		t.Fatalf("expected a single set, mask = %d", c.mask)
	}
	for k := uint64(1); k <= hotWays; k++ {
		c.put(k, uint16(k), true)
	}
	// Touch key 1 so it is the hottest, then overflow the set.
	if _, _, ok := c.get(1); !ok {
		t.Fatal("key 1 missing before overflow")
	}
	c.put(100, 100, true)
	if _, _, ok := c.get(100); !ok {
		t.Fatal("newly inserted key was not retained")
	}
	if v, _, ok := c.get(1); !ok || v != 1 {
		t.Fatalf("recently-used key was evicted over a stale one (ok=%v v=%d)", ok, v)
	}
}

func TestLookupFlightsCoalesce(t *testing.T) {
	lf := newLookupFlights()
	var fetches atomic.Int64
	var release sync.WaitGroup
	release.Add(1)
	fetch := func(ctx context.Context, key uint64) (uint16, bool, error) {
		fetches.Add(1)
		release.Wait() // hold every first fetch open so others can pile on
		return uint16(key), true, nil
	}
	const key = 20
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	vals := make([]uint16, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals[w], _, errs[w] = lf.do(context.Background(), key, fetch)
		}(w)
	}
	// Hold the first fetch open until every other caller has joined it,
	// then let it finish.
	deadline := time.Now().Add(10 * time.Second)
	for fetches.Load() < 1 || lf.coalesced.Load() < callers-1 {
		if time.Now().After(deadline) {
			release.Done()
			wg.Wait()
			t.Fatalf("callers never joined one flight: %d fetches, %d coalesced", fetches.Load(), lf.coalesced.Load())
		}
		time.Sleep(time.Millisecond)
	}
	release.Done()
	wg.Wait()
	for w := range errs {
		if errs[w] != nil {
			t.Fatalf("caller %d: %v", w, errs[w])
		}
		if vals[w] != key {
			t.Fatalf("caller %d got val %d", w, vals[w])
		}
	}
	if f := fetches.Load(); f != 1 {
		t.Fatalf("%d fetches for %d identical callers, want 1", f, callers)
	}
	if c := lf.coalesced.Load(); c != callers-1 {
		t.Fatalf("coalesced counter = %d, want %d", c, callers-1)
	}
	// A different key never shares a flight.
	v, _, err := lf.do(context.Background(), 31, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if v != 31 {
		t.Fatalf("distinct key got shared result %d", v)
	}
}

// TestClientCacheServesWithoutWire proves the tiers actually remove
// round trips: after a first pass, repeated single-key lookups and level
// reads are answered without the server seeing any new request.
func TestClientCacheServesWithoutWire(t *testing.T) {
	res := fixtureTables(t)
	srv, addr := startServer(t, fixtureBackend(t))
	cl := dialClient(t, addr, nil) // caches on by default
	ctx := context.Background()

	var keys []uint64
	rng := rand.New(rand.NewSource(5))
	lv := res.Level(res.MaxCost)
	for i := 0; i < 300; i++ {
		keys = append(keys, uint64(lv.At(rng.Intn(lv.Len()))))
		keys = append(keys, uint64(randomPerm16(rng))) // mostly absent
	}
	lookupEach := func(vals []uint16, found []bool) {
		t.Helper()
		for i := range keys {
			if err := cl.LookupBatch(ctx, keys[i:i+1], vals[i:i+1], found[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	vals1 := make([]uint16, len(keys))
	found1 := make([]bool, len(keys))
	lookupEach(vals1, found1)
	out1 := make([]uint64, res.LevelLen(2))
	if err := cl.LevelKeys(ctx, 2, 0, out1); err != nil {
		t.Fatal(err)
	}

	before := srv.Stats()
	vals2 := make([]uint16, len(keys))
	found2 := make([]bool, len(keys))
	lookupEach(vals2, found2)
	out2 := make([]uint64, res.LevelLen(2))
	if err := cl.LevelKeys(ctx, 2, 0, out2); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if after.Lookups != before.Lookups || after.LevelReqs != before.LevelReqs {
		t.Fatalf("warm pass hit the wire: %+v -> %+v", before, after)
	}
	for i := range keys {
		if vals1[i] != vals2[i] || found1[i] != found2[i] {
			t.Fatalf("key %d: warm (%d,%v) != cold (%d,%v)", i, vals2[i], found2[i], vals1[i], found1[i])
		}
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("level key %d: warm %#x != cold %#x", i, out2[i], out1[i])
		}
	}

	st := cl.CacheStats()
	if st.KeyHits < uint64(len(keys)) || st.KeyMisses == 0 {
		t.Fatalf("key counters off: %+v", st)
	}
	if st.LevelHits == 0 || st.LevelMisses == 0 {
		t.Fatalf("level counters off: %+v", st)
	}
	if st.CacheBytes <= 0 || st.WireBytesRead == 0 || st.WireBytesWritten == 0 {
		t.Fatalf("byte counters off: %+v", st)
	}
}

// TestClientBatchBypassesCache: a multi-key batch always travels whole —
// even when every key is cached — adds len(keys) to KeyMisses, and
// leaves the cache contents untouched: it neither fills the cache with
// its keys nor evicts what single-key lookups put there.
func TestClientBatchBypassesCache(t *testing.T) {
	res := fixtureTables(t)
	srv, addr := startServer(t, fixtureBackend(t))
	cl := dialClient(t, addr, nil)
	ctx := context.Background()

	cached := uint64(res.Level(1).At(0))
	if err := cl.LookupBatch(ctx, []uint64{cached}, make([]uint16, 1), make([]bool, 1)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	fresh := []uint64{uint64(res.Level(2).At(0)), uint64(randomPerm16(rng))}
	for _, batch := range [][]uint64{
		{cached, cached},
		{cached, fresh[0]},
		fresh,
	} {
		before, beforeSt := srv.Stats(), cl.CacheStats()
		vals := make([]uint16, len(batch))
		found := make([]bool, len(batch))
		if err := cl.LookupBatch(ctx, batch, vals, found); err != nil {
			t.Fatal(err)
		}
		after, afterSt := srv.Stats(), cl.CacheStats()
		if moved := after.Keys - before.Keys; moved != uint64(len(batch)) {
			t.Fatalf("batch %v sent %d keys over the wire, want %d", batch, moved, len(batch))
		}
		if afterSt.KeyHits != beforeSt.KeyHits || afterSt.KeyMisses-beforeSt.KeyMisses != uint64(len(batch)) {
			t.Fatalf("batch %v moved key counters %+v -> %+v, want +%d misses only", batch, beforeSt, afterSt, len(batch))
		}
		for i, k := range batch {
			if !found[i] && k != fresh[1] {
				t.Fatalf("batch %v: table key %#x reported absent", batch, k)
			}
		}
	}
	if _, _, ok := cl.kcache.get(cached); !ok {
		t.Fatal("batches evicted the single-key entry")
	}
	for _, k := range fresh {
		if _, _, ok := cl.kcache.get(k); ok {
			t.Fatalf("batch key %#x entered the cache", k)
		}
	}
}

// TestClientWorkingSetUnderScanFlood: a single-key working set stays
// 100 % resident while concurrent flooders push multi-key batches of
// unique keys through the same client — scan batches cannot evict it
// because they never insert. Readers re-probe the working set during
// the flood too, racing the batch path against the seqlock reads.
func TestClientWorkingSetUnderScanFlood(t *testing.T) {
	res := fixtureTables(t)
	srv, addr := startServer(t, fixtureBackend(t))

	// 64 present keys spread ≤ 2 per cache set (CacheKeys 256 → 64 sets)
	// so the working set itself never overflows a set.
	lv := res.Level(res.MaxCost)
	li := 0
	hot := spreadKeys(t, 64, 256/hotWays, 2, func() uint64 {
		k := uint64(lv.At(li % lv.Len()))
		li++
		return k
	})
	cl := dialClient(t, addr, &ClientOptions{CacheKeys: 256})
	ctx := context.Background()
	probe := func() (hits uint64) {
		var v [1]uint16
		var f [1]bool
		for i := range hot {
			before := cl.CacheStats().KeyHits
			if err := cl.LookupBatch(ctx, hot[i:i+1], v[:], f[:]); err != nil {
				t.Error(err)
				return hits
			}
			if !f[0] {
				t.Errorf("working-set key %#x reported absent", hot[i])
			}
			hits += cl.CacheStats().KeyHits - before
		}
		return hits
	}
	probe() // warm-up: the working set enters an empty cache

	const rounds = 12
	floodNext := uint64(1) << 40
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for f := 0; f < 2; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				keys := make([]uint64, 256)
				for i := range keys {
					keys[i] = floodNext + uint64(r*4096+f*2048+i)
				}
				if err := cl.LookupBatch(ctx, keys, make([]uint16, len(keys)), make([]bool, len(keys))); err != nil {
					t.Error(err)
				}
			}(f)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe() // concurrent with the flood: hits are not counted here
		}()
		wg.Wait()

		before := srv.Stats()
		if hits := probe(); hits != uint64(len(hot)) {
			t.Fatalf("round %d: working-set residency %d/%d under scan flood, want all", r, hits, len(hot))
		}
		if after := srv.Stats(); after.Lookups != before.Lookups {
			t.Fatalf("round %d: resident working set still hit the wire (%d lookups)", r, after.Lookups-before.Lookups)
		}
	}
}

// spreadKeys draws keys from gen until count keys land no more than
// maxPerSet into any of the cache's sets (the same hash the cache
// itself uses).
func spreadKeys(t *testing.T, count, sets, maxPerSet int, gen func() uint64) []uint64 {
	t.Helper()
	perSet := make(map[uint64]int, sets)
	var keys []uint64
	for tries := 0; len(keys) < count; tries++ {
		if tries > 100000 {
			t.Fatal("could not spread the working set over the cache sets")
		}
		k := gen()
		set := hashtab.Hash64Shift(k) & uint64(sets-1)
		if perSet[set] >= maxPerSet {
			continue
		}
		perSet[set]++
		keys = append(keys, k)
	}
	return keys
}

func TestClientCachesDisabled(t *testing.T) {
	srv, addr := startServer(t, fixtureBackend(t))
	cl := dialClient(t, addr, &ClientOptions{CacheKeys: -1, LevelCacheBytes: -1})
	ctx := context.Background()
	keys := []uint64{uint64(fixtureTables(t).Level(1).At(0))}
	for pass := 0; pass < 2; pass++ {
		if err := cl.LookupBatch(ctx, keys, make([]uint16, 1), make([]bool, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Lookups != 2 {
		t.Fatalf("disabled caches still absorbed traffic: %+v", st)
	}
	st := cl.CacheStats()
	if st.KeyHits != 0 || st.LevelHits != 0 || st.CacheBytes != 0 {
		t.Fatalf("disabled caches report activity: %+v", st)
	}
	if st.WireBytesRead == 0 {
		t.Fatalf("wire counters must still count: %+v", st)
	}
}

// TestPipelinedRemoteMatchesLocal forces the remote scan through many
// tiny chunks — so the LevelKeys prefetch of chunk i+1 genuinely
// overlaps chunk i's LookupBatch, across level boundaries too — and
// requires byte-identical answers to the sequential local engine, cold
// and warm (the warm pass re-runs every spec against fully-primed
// caches).
func TestPipelinedRemoteMatchesLocal(t *testing.T) {
	res := fixtureTables(t)
	_, addr := startServer(t, fixtureBackend(t))
	cl := dialClient(t, addr, nil)

	localSynth, err := core.FromResult(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	localSynth.SetWorkers(1)
	remoteSynth, err := core.FromBackend(cl, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 4 representatives per chunk: a level-3 scan alone is dozens of
	// pipelined chunks.
	remoteSynth.SetBatchKeys(192)

	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	var specs []perm.Perm
	for i := 0; i < 10; i++ {
		specs = append(specs, randomCircuitPerm(rng, 5+rng.Intn(4)))
	}
	specs = append(specs, randomPerm16(rng), randomPerm16(rng))

	mitm := 0
	for pass, label := range []string{"cold", "warm"} {
		_ = pass
		for _, f := range specs {
			wantC, wantInfo, wantErr := localSynth.SynthesizeInfoCtx(ctx, f)
			gotC, gotInfo, gotErr := remoteSynth.SynthesizeInfoCtx(ctx, f)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, core.ErrBeyondHorizon)) {
				t.Fatalf("%s spec %v: local err %v, remote err %v", label, f, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if wantInfo != gotInfo {
				t.Fatalf("%s spec %v: local info %+v, remote info %+v", label, f, wantInfo, gotInfo)
			}
			if wantC.String() != gotC.String() {
				t.Fatalf("%s spec %v: local circuit %v != remote %v", label, f, wantC, gotC)
			}
			if !wantInfo.Direct {
				mitm++
			}
		}
	}
	if mitm < 4 {
		t.Fatalf("only %d meet-in-the-middle answers; the pipelined scan was barely exercised", mitm)
	}
	if st := cl.CacheStats(); st.KeyHits == 0 || st.LevelHits == 0 {
		t.Fatalf("warm pass did not use the caches: %+v", st)
	}
}

// TestTinyBatchKeysMatchesLocal: a batch target below one reduced
// representative's 48-variant expansion must clamp the scratch up, not
// overflow it — SetBatchKeys(10) used to panic at the first
// meet-in-the-middle chunk.
func TestTinyBatchKeysMatchesLocal(t *testing.T) {
	res := fixtureTables(t)
	_, addr := startServer(t, fixtureBackend(t))
	cl := dialClient(t, addr, nil)
	localSynth, err := core.FromResult(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	localSynth.SetWorkers(1)
	remote, err := core.FromBackend(cl, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote.SetBatchKeys(10)

	rng := rand.New(rand.NewSource(33))
	ctx := context.Background()
	mitm := 0
	for i := 0; i < 8; i++ {
		f := randomCircuitPerm(rng, 5+rng.Intn(3))
		wantC, wantInfo, wantErr := localSynth.SynthesizeInfoCtx(ctx, f)
		gotC, gotInfo, gotErr := remote.SynthesizeInfoCtx(ctx, f)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("spec %v: local err %v, remote err %v", f, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if wantInfo != gotInfo || wantC.String() != gotC.String() {
			t.Fatalf("spec %v: local (%+v, %v) != remote (%+v, %v)", f, wantInfo, wantC, gotInfo, gotC)
		}
		if !wantInfo.Direct {
			mitm++
		}
	}
	if mitm == 0 {
		t.Fatal("no meet-in-the-middle query exercised the tiny batch")
	}
}

// TestWireBytesCountRetriedFrames: WireBytesWritten is the offered-load
// denominator, so a frame re-sent on the retry path must count once per
// attempt — the counter used to tick only after a successful flush,
// silently dropping every frame that died on a stale pooled connection.
func TestWireBytesCountRetriedFrames(t *testing.T) {
	local := fixtureBackend(t)
	srv1, err := NewServer(local)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	go srv1.Serve(l)

	cl := dialClient(t, addr, &ClientOptions{Conns: 1, CacheKeys: -1, LevelCacheBytes: -1})
	ctx := context.Background()
	keys := []uint64{uint64(fixtureTables(t).Level(1).At(0))}
	vals := make([]uint16, 1)
	found := make([]bool, 1)

	before := cl.CacheStats()
	if err := cl.LookupBatch(ctx, keys, vals, found); err != nil {
		t.Fatal(err)
	}
	mid := cl.CacheStats()
	oneAttempt := mid.WireBytesWritten - before.WireBytesWritten
	if oneAttempt == 0 {
		t.Fatal("clean lookup wrote no counted bytes")
	}
	if mid.WireRetries != before.WireRetries {
		t.Fatalf("clean lookup retried: %+v", mid)
	}

	// Restart the server on the same address: the pooled connection is
	// now dead, so the identical lookup is written twice — once into the
	// stale socket, once on the redialed retry.
	srv1.Close()
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(local)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l2)
	t.Cleanup(func() { srv2.Close() })

	lbCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := cl.LookupBatch(lbCtx, keys, vals, found); err != nil || !found[0] {
		t.Fatalf("lookup after restart: %v (found %v)", err, found[0])
	}
	after := cl.CacheStats()
	retried := after.WireRetries - mid.WireRetries
	if retried == 0 {
		t.Fatal("restart did not exercise the retry path; the fixture is broken")
	}
	attempts := 1 + retried
	if got := after.WireBytesWritten - mid.WireBytesWritten; got != attempts*oneAttempt {
		t.Fatalf("retried lookup counted %d wire bytes over %d attempts, want %d (%d per attempt)",
			got, attempts, attempts*oneAttempt, oneAttempt)
	}
}

// TestFrameCodecAllocs guards the pooled frame codec: with warm scratch
// buffers, encoding and reading frames allocates nothing.
func TestFrameCodecAllocs(t *testing.T) {
	payload := make([]byte, 1024)
	var buf bytes.Buffer
	buf.Grow(4096)
	scratch := make([]byte, 4096)
	frame := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		out, err := appendFrame(frame[:0], opLookup, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := buf.Write(out); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readFrame(&buf, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("frame codec allocates %.1f times per round trip, want 0", allocs)
	}
}

// TestClientLookupAllocs guards the client's request path: a cached
// single-key lookup allocates nothing, and neither does a multi-key
// batch on a caching client — it goes straight to the wire, encoding
// into the pooled connection's frame buffer, with no key copy, result
// buffers, channel or goroutine per batch.
func TestClientLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bounds are calibrated without race instrumentation")
	}
	res := fixtureTables(t)
	_, addr := startServer(t, fixtureBackend(t))
	ctx := context.Background()
	keys := make([]uint64, 64)
	lv := res.Level(res.MaxCost)
	for i := range keys {
		keys[i] = uint64(lv.At(i % lv.Len()))
	}
	vals := make([]uint16, len(keys))
	found := make([]bool, len(keys))
	cl := dialClient(t, addr, &ClientOptions{Conns: 1})

	one, oneVal, oneFound := keys[:1], vals[:1], found[:1]
	if err := cl.LookupBatch(ctx, one, oneVal, oneFound); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := cl.LookupBatch(ctx, one, oneVal, oneFound); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("cached single-key LookupBatch allocates %.1f times, want 0", allocs)
	}

	if err := cl.LookupBatch(ctx, keys, vals, found); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if err := cl.LookupBatch(ctx, keys, vals, found); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("multi-key LookupBatch allocates %.1f times per round trip, want 0", allocs)
	}
}
