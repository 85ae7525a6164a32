package tablesio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/bfs"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/perm"
)

// hashedRegions returns the byte ranges of a full v2 store that a
// fingerprint covers — the header and the three sections, without the
// alignment padding between them.
func hashedRegions(t *testing.T, blob []byte) [][2]int {
	t.Helper()
	h, headerLen, err := parseHeaderV2(blob)
	if err != nil {
		t.Fatal(err)
	}
	l := computeLayoutV2(headerLen, h.shardCount, h.slotsPerShard, h.entryCount, false)
	return [][2]int{
		{0, headerLen},
		{int(l.keysOff), int(l.keysOff + l.totalSlots*8)},
		{int(l.valsOff), int(l.valsOff + l.totalSlots*2)},
		{int(l.idxOff), int(l.idxOff + h.entryCount*4)},
	}
}

// TestRoundTrip covers what the gate-alphabet round trips do not: an
// unreduced table over another alphabet.
func TestRoundTrip(t *testing.T) {
	orig, err := bfs.Search(bfs.LNNAlphabet(), 3, &bfs.Options{NoReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveV2(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()), bfs.LNNAlphabet())
	if err != nil {
		t.Fatal(err)
	}
	checkSameTables(t, orig, back)
}

func TestLoadedTablesSynthesizeIdentically(t *testing.T) {
	orig, blob := savedV2(t, 4)
	back, err := Load(bytes.NewReader(blob), bfs.GateAlphabet())
	if err != nil {
		t.Fatal(err)
	}
	sOrig, err := core.FromResult(orig, 4)
	if err != nil {
		t.Fatal(err)
	}
	sBack, err := core.FromResult(back, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		f := randomCircuitPerm(rng, rng.Intn(8))
		a, errA := sOrig.Synthesize(f)
		b, errB := sBack.Synthesize(f)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error divergence: %v vs %v", errA, errB)
		}
		if errA != nil {
			continue
		}
		if len(a) != len(b) || a.Perm() != b.Perm() {
			t.Fatalf("loaded tables synthesize differently: %v vs %v", a, b)
		}
	}
}

func randomCircuitPerm(rng *rand.Rand, n int) perm.Perm {
	c := make(circuit.Circuit, n)
	for i := range c {
		c[i] = gate.FromIndex(rng.Intn(gate.Count))
	}
	return c.Perm()
}

func TestWrongAlphabetRejected(t *testing.T) {
	_, blob := savedV2(t, 3)
	if _, err := Load(bytes.NewReader(blob), bfs.LinearAlphabet()); err == nil {
		t.Fatal("loading gate tables against the linear alphabet succeeded")
	}
	if _, err := Load(bytes.NewReader(blob), nil); err == nil {
		t.Fatal("nil alphabet accepted")
	}
}

func TestTruncationDetected(t *testing.T) {
	_, blob := savedV2(t, 3)
	for _, cut := range []int{0, 3, 10, 40, len(blob) / 2, len(blob) - 1} {
		if _, err := Load(bytes.NewReader(blob[:cut]), bfs.GateAlphabet()); err == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

// TestBitFlipDetected flips single bits inside the fingerprinted
// regions of a store — header and sections, not the alignment padding
// TestV2BitFlips covers. Each region is covered by its fingerprint, so
// the streaming loader must detect every flip.
func TestBitFlipDetected(t *testing.T) {
	_, blob := savedV2(t, 3)
	regions := hashedRegions(t, blob)
	rng := rand.New(rand.NewSource(2))
	detected := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		corrupted := append([]byte(nil), blob...)
		r := regions[trial%len(regions)]
		pos := r[0] + rng.Intn(r[1]-r[0])
		corrupted[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := Load(bytes.NewReader(corrupted), bfs.GateAlphabet()); err != nil {
			detected++
		}
	}
	if detected != trials {
		t.Fatalf("only %d/%d single-bit corruptions detected", detected, trials)
	}
}

func TestBadMagicRejected(t *testing.T) {
	_, blob := savedV2(t, 2)
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := Load(bytes.NewReader(bad), bfs.GateAlphabet()); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSaveNilRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveV2(&buf, nil); err == nil {
		t.Fatal("SaveV2(nil) succeeded")
	}
}

func BenchmarkSaveK5(b *testing.B) {
	res, err := bfs.Search(bfs.GateAlphabet(), 5, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := SaveV2(&buf, res); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkLoadK5(b *testing.B) {
	res, err := bfs.Search(bfs.GateAlphabet(), 5, nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveV2(&buf, res); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(blob), bfs.GateAlphabet()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestVersionGating(t *testing.T) {
	_, blob := savedV2(t, 2)
	// A future format version must be rejected with ErrUnsupportedVersion
	// (the checksum would also fail, but the version gate fires first and
	// precisely).
	future := append([]byte(nil), blob...)
	future[3] = '3'
	_, err := Load(bytes.NewReader(future), bfs.GateAlphabet())
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("future version: err = %v, want ErrUnsupportedVersion", err)
	}
	// A v2 stream relabeled as v1 is refused by the version gate before
	// any of it is parsed.
	relabeled := append([]byte(nil), blob...)
	relabeled[3] = '1'
	_, err = Load(bytes.NewReader(relabeled), bfs.GateAlphabet())
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("relabeled stream: err = %v, want ErrUnsupportedVersion", err)
	}
	// A stream that is not a tables file at all reports ErrBadMagic.
	_, err = Load(bytes.NewReader([]byte("PNG\x0d\x0a\x1a\x0a")), bfs.GateAlphabet())
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign stream: err = %v, want ErrBadMagic", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	_, blob := savedV2(t, 2)
	if _, err := Load(bytes.NewReader(blob[:len(blob)-1]), bfs.GateAlphabet()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation: err = %v, want ErrCorrupt", err)
	}
	flipped := append([]byte(nil), blob...)
	flipped[hashedRegions(t, blob)[1][0]] ^= 0x40 // first key slot
	if _, err := Load(bytes.NewReader(flipped), bfs.GateAlphabet()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}
	if _, err := Load(bytes.NewReader(blob), bfs.LinearAlphabet()); !errors.Is(err, ErrAlphabetMismatch) {
		t.Fatalf("wrong alphabet: err = %v, want ErrAlphabetMismatch", err)
	}
}

func TestLoadProgressStreams(t *testing.T) {
	res, blob := savedV2(t, 3)
	var levels, entries []int
	_, err := LoadWithOptions(bytes.NewReader(blob), bfs.GateAlphabet(), &LoadOptions{
		Progress: func(level, n int) { levels = append(levels, level); entries = append(entries, n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != res.MaxCost+1 {
		t.Fatalf("progress fired %d times, want %d", len(levels), res.MaxCost+1)
	}
	for c := 0; c <= res.MaxCost; c++ {
		if levels[c] != c || entries[c] != res.LevelLen(c) {
			t.Fatalf("progress level %d reported (%d, %d), want (%d, %d)",
				c, levels[c], entries[c], c, res.LevelLen(c))
		}
	}
}

func TestMaxEntriesCap(t *testing.T) {
	_, blob := savedV2(t, 3)
	_, err := LoadWithOptions(bytes.NewReader(blob), bfs.GateAlphabet(), &LoadOptions{MaxEntries: 10})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-cap load: err = %v, want ErrCorrupt", err)
	}
}

func TestForgedLevelSizeOverflowRejected(t *testing.T) {
	// The per-level counts follow the fixed header fields, one uint64 per
	// cost level. A level size of 2^64-1 must not wrap the running total
	// back under the entry cap and drive a negative allocation size; with
	// the header fingerprint resealed over the forgery it must still be a
	// clean ErrCorrupt.
	_, blob := savedV2(t, 2)
	for c := 0; c <= 2; c++ {
		forged := resealV2(blob, func(b []byte) {
			binary.LittleEndian.PutUint64(b[headerFixedLen+8*c:], ^uint64(0))
		})
		_, err := Load(bytes.NewReader(forged), bfs.GateAlphabet())
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("forged level %d size: err = %v, want ErrCorrupt", c, err)
		}
	}
}

// TestV1StoreRejected: a store in the retired v1 entry-stream format is
// refused with the typed ErrUnsupportedVersion by every load path.
func TestV1StoreRejected(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1 := v1Stream(res)
	if _, err := Load(bytes.NewReader(v1), bfs.GateAlphabet()); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("Load: err = %v, want ErrUnsupportedVersion", err)
	}
	if _, err := LoadWithOptions(bytes.NewReader(v1), bfs.GateAlphabet(), &LoadOptions{VerifyContent: true}); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("LoadWithOptions: err = %v, want ErrUnsupportedVersion", err)
	}
	path := writeTemp(t, v1)
	for _, opts := range []*LoadOptions{nil, {DisableMmap: true}, {AllowSplit: true}} {
		if _, _, err := LoadFile(path, bfs.GateAlphabet(), opts); !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("LoadFile(%+v): err = %v, want ErrUnsupportedVersion", opts, err)
		}
	}
}

// v1Stream encodes res in the retired v1 entry-stream format:
//
//	magic "RVT1" | flags | k | alphabet fingerprint |
//	per-level counts | representative words | per-representative values |
//	FNV-64a checksum of everything above
//
// Values carry the element index in the low 15 bits, bit 15 flagging a
// first element, all ones marking the identity.
func v1Stream(res *bfs.Result) []byte {
	var buf bytes.Buffer
	le := binary.LittleEndian
	buf.WriteString("RVT1")
	fp := fingerprintOf(res.Alphabet)
	for _, v := range []any{uint32(flagReduced), uint32(res.MaxCost), fp.Elements, fp.MaxCost, fp.XorPerms, fp.SumCosts} {
		binary.Write(&buf, le, v)
	}
	for c := 0; c <= res.MaxCost; c++ {
		binary.Write(&buf, le, uint64(res.LevelLen(c)))
	}
	for c := 0; c <= res.MaxCost; c++ {
		lvl := res.Level(c)
		for i := 0; i < lvl.Len(); i++ {
			v, _ := res.Lookup(lvl.At(i))
			raw := uint16(0x7FFF)
			if !v.IsIdentity {
				raw = uint16(v.Elem)
				if v.First {
					raw |= 1 << 15
				}
			}
			binary.Write(&buf, le, uint64(lvl.At(i)))
			binary.Write(&buf, le, raw)
		}
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	binary.Write(&buf, le, h.Sum64())
	return buf.Bytes()
}
