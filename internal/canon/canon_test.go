package canon

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gate"
	"repro/internal/perm"
)

func randPerm(rng *rand.Rand) perm.Perm {
	var vals [16]uint8
	for i := range vals {
		vals[i] = uint8(i)
	}
	for i := 15; i > 0; i-- {
		j := rng.Intn(i + 1)
		vals[i], vals[j] = vals[j], vals[i]
	}
	return perm.MustFromValues(vals)
}

func TestPlainChangesEnumeratesS4(t *testing.T) {
	seen := map[[4]uint8]bool{}
	for s := 0; s < SigmaCount; s++ {
		sig := Sigma(s)
		if seen[sig] {
			t.Fatalf("relabeling %v repeated at position %d", sig, s)
		}
		seen[sig] = true
	}
	if len(seen) != 24 {
		t.Fatalf("enumerated %d relabelings, want 24", len(seen))
	}
	if Sigma(0) != [4]uint8{0, 1, 2, 3} {
		t.Fatalf("Sigma(0) = %v, want identity", Sigma(0))
	}
}

func TestConsecutiveSigmasDifferByAdjacentSwap(t *testing.T) {
	for s := 0; s+1 < SigmaCount; s++ {
		a, b := Sigma(s), Sigma(s+1)
		diff := 0
		for i := 0; i < 4; i++ {
			if a[i] != b[i] {
				diff++
			}
		}
		if diff != 2 {
			t.Fatalf("positions %d and %d differ in %d slots, want 2", s, s+1, diff)
		}
	}
}

func TestShuffleOfIdentityIsIdentity(t *testing.T) {
	if Shuffle(0) != perm.Identity {
		t.Fatalf("Shuffle(0) = %v", Shuffle(0))
	}
}

func TestInverseSigma(t *testing.T) {
	for s := 0; s < SigmaCount; s++ {
		if Shuffle(s).Then(Shuffle(InverseSigma(s))) != perm.Identity &&
			Shuffle(InverseSigma(s)).Then(Shuffle(s)) != perm.Identity {
			t.Fatalf("InverseSigma(%d) = %d is not an inverse", s, InverseSigma(s))
		}
	}
}

func TestCanonicalWitness(t *testing.T) {
	// The returned (sigma, inverted) pair must reconstruct the
	// representative exactly — this is what BFS/search rely on to
	// translate stored gates back to the queried function.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		f := randPerm(rng)
		rep, sigma, inverted := Canonical(f)
		base := f
		if inverted {
			base = f.Inverse()
		}
		if got := perm.Conjugate(base, Shuffle(sigma)); got != rep {
			t.Fatalf("witness failed for %v: conj(base,σ%d)=%v, rep=%v (inv=%v)",
				f, sigma, got, rep, inverted)
		}
	}
}

func TestCanonicalIsClassInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		f := randPerm(rng)
		rep := Rep(f)
		if Rep(f.Inverse()) != rep {
			t.Fatalf("Rep(f⁻¹) differs from Rep(f) for %v", f)
		}
		for s := 0; s < SigmaCount; s++ {
			if Rep(perm.Conjugate(f, Shuffle(s))) != rep {
				t.Fatalf("Rep of conjugate by σ%d differs for %v", s, f)
			}
		}
	}
}

func TestCanonicalIsMinimumOfClass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		f := randPerm(rng)
		rep := Rep(f)
		for _, v := range Class(f) {
			if v < rep {
				t.Fatalf("class member %v below representative %v", v, rep)
			}
		}
		found := false
		for _, v := range Class(f) {
			if v == rep {
				found = true
			}
		}
		if !found {
			t.Fatalf("representative %v not in its own class", rep)
		}
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		f := randPerm(rng)
		rep := Rep(f)
		if Rep(rep) != rep {
			t.Fatalf("Rep not idempotent: Rep(%v) = %v", rep, Rep(rep))
		}
	}
}

func TestClassSizeDividesIntoVariants(t *testing.T) {
	// Class sizes must divide 48 (orbit-stabilizer for the group of order
	// 48 acting by conjugation+inversion).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		f := randPerm(rng)
		n := ClassSize(f)
		if n < 1 || n > MaxClassSize || MaxClassSize%n != 0 {
			t.Fatalf("class size %d does not divide %d", n, MaxClassSize)
		}
		if got := len(Class(f)); got != n {
			t.Fatalf("ClassSize=%d but len(Class)=%d", n, got)
		}
	}
}

func TestMostClassesHaveFullSize(t *testing.T) {
	// Paper §3.2: "a vast majority of functions have 48 distinct
	// equivalent functions."
	rng := rand.New(rand.NewSource(6))
	full := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		if ClassSize(randPerm(rng)) == MaxClassSize {
			full++
		}
	}
	if full < trials*95/100 {
		t.Fatalf("only %d/%d random functions have full 48-element classes", full, trials)
	}
}

func TestIdentityClassIsSingleton(t *testing.T) {
	if n := ClassSize(perm.Identity); n != 1 {
		t.Fatalf("identity class size = %d, want 1", n)
	}
	if Rep(perm.Identity) != perm.Identity {
		t.Fatal("identity is not its own representative")
	}
}

func TestNOTClassMatchesPaperExample(t *testing.T) {
	// Paper §3.2: "if f = NOT(a), then there exist only 4 distinct
	// functions of the form fσ" — and NOT gates are self-inverse, so the
	// full class (with inversion) is also exactly the 4 NOT gates.
	f := gate.MustParse("NOT(a)").Perm()
	cls := Class(f)
	if len(cls) != 4 {
		t.Fatalf("NOT(a) class size = %d, want 4", len(cls))
	}
	wantMembers := map[perm.Perm]bool{}
	for w := 0; w < 4; w++ {
		wantMembers[gate.MustNew(w, 0).Perm()] = true
	}
	for _, v := range cls {
		if !wantMembers[v] {
			t.Fatalf("unexpected member %v in NOT class", v)
		}
	}
}

func TestGateClassesAreGateKinds(t *testing.T) {
	// Conjugation+inversion partitions the 32 gates into exactly the four
	// kinds: 4 NOTs, 12 CNOTs, 12 TOFs, 4 TOF4s (paper Table 4, size-1
	// row: 32 functions, 4 reduced).
	reps := map[perm.Perm][]gate.Gate{}
	for _, g := range gate.All() {
		r := Rep(g.Perm())
		reps[r] = append(reps[r], g)
	}
	if len(reps) != 4 {
		t.Fatalf("gates form %d classes, want 4", len(reps))
	}
	for r, gates := range reps {
		kind := gates[0].Kind()
		for _, g := range gates {
			if g.Kind() != kind {
				t.Fatalf("class of %v mixes kinds", r)
			}
		}
		wantLen := map[gate.Kind]int{gate.NOT: 4, gate.CNOT: 12, gate.TOF: 12, gate.TOF4: 4}[kind]
		if len(gates) != wantLen {
			t.Fatalf("%v class has %d gates, want %d", kind, len(gates), wantLen)
		}
	}
}

func TestConjugateGateTable(t *testing.T) {
	for s := 0; s < SigmaCount; s++ {
		for _, g := range gate.All() {
			cg := ConjugateGate(g, s)
			if cg.Perm() != perm.Conjugate(g.Perm(), Shuffle(s)) {
				t.Fatalf("ConjugateGate(%v, σ%d) = %v does not match conjugation", g, s, cg)
			}
			if cg.Kind() != g.Kind() {
				t.Fatalf("conjugation changed gate kind: %v -> %v", g, cg)
			}
		}
	}
}

func TestConjugateGateDistributes(t *testing.T) {
	// conj(p.Then(q)) = conj(p).Then(conj(q)) specialized to gates: the
	// identity the circuit-reconstruction logic depends on.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		g1 := gate.FromIndex(rng.Intn(gate.Count))
		g2 := gate.FromIndex(rng.Intn(gate.Count))
		s := rng.Intn(SigmaCount)
		lhs := perm.Conjugate(g1.Perm().Then(g2.Perm()), Shuffle(s))
		rhs := ConjugateGate(g1, s).Perm().Then(ConjugateGate(g2, s).Perm())
		if lhs != rhs {
			t.Fatalf("gate conjugation does not distribute (σ%d, %v, %v)", s, g1, g2)
		}
	}
}

func TestForEachVariantCoversClassExactly48(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		f := randPerm(rng)
		count := 0
		seen := map[perm.Perm]bool{}
		ForEachVariant(f, func(v perm.Perm) bool {
			count++
			seen[v] = true
			return true
		})
		if count != MaxClassSize {
			t.Fatalf("variant walk yielded %d values, want %d", count, MaxClassSize)
		}
		if len(seen) != ClassSize(f) {
			t.Fatalf("variant walk covered %d distinct, class size %d", len(seen), ClassSize(f))
		}
	}
}

func TestForEachVariantEarlyStop(t *testing.T) {
	count := 0
	ForEachVariant(perm.Identity, func(perm.Perm) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop after %d calls, want 5", count)
	}
}

func TestQuickEquivalentFunctionsShareRep(t *testing.T) {
	f := func(seed int64, sRaw uint8, invert bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPerm(rng)
		v := perm.Conjugate(p, Shuffle(int(sRaw)%SigmaCount))
		if invert {
			v = v.Inverse()
		}
		return Rep(v) == Rep(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// randInvolution composes a random palindrome of gates — (g₁…gₙ…g₁) is
// its own inverse because every gate is — giving involutions that are
// not themselves single alphabet elements.
func randInvolution(rng *rand.Rand) perm.Perm {
	g1 := gate.FromIndex(rng.Intn(gate.Count)).Perm()
	g2 := gate.FromIndex(rng.Intn(gate.Count)).Perm()
	g3 := gate.FromIndex(rng.Intn(gate.Count)).Perm()
	p := g1.Then(g2).Then(g3).Then(g2).Then(g1)
	if p.Inverse() != p {
		panic("palindrome is not an involution")
	}
	return p
}

// TestCanonicalInvolutionFastPath checks the single-sweep shortcut
// against the definition: for involutions the representative must still
// be the minimum over the full class, with a valid witness.
func TestCanonicalInvolutionFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		f := randInvolution(rng)
		rep, sigma, inverted := Canonical(f)
		cls := Class(f)
		if rep != cls[0] {
			t.Fatalf("involution %v canonicalized to %v, class min %v", f, rep, cls[0])
		}
		base := f
		if inverted {
			base = f.Inverse()
		}
		if got := perm.Conjugate(base, Shuffle(sigma)); got != rep {
			t.Fatalf("witness broken for involution %v: conj = %v, rep = %v", f, got, rep)
		}
		// The walk must visit the whole class in half the kernel count.
		count, seen := 0, map[perm.Perm]bool{}
		ForEachVariant(f, func(v perm.Perm) bool {
			count++
			seen[v] = true
			return true
		})
		if count != SigmaCount {
			t.Fatalf("involution variant walk yielded %d values, want %d", count, SigmaCount)
		}
		if len(seen) != ClassSize(f) {
			t.Fatalf("involution walk covered %d distinct, class size %d", len(seen), ClassSize(f))
		}
	}
}

// walkPositions recomputes, from the shuffle words alone, the walk
// position (index into Sigma/Shuffle) that each step of the
// plain-changes schedule reaches; walk[0] is the identity. Applying
// kernel t to a function conjugated by Shuffle(s) leaves it conjugated
// by the product: conj(conj(f, A), B) = conj(f, A·B), which as packed
// words is B.Then(A).
func walkPositions(t testing.TB) [SigmaCount]int {
	t.Helper()
	shuffleIdx := make(map[perm.Perm]int, SigmaCount)
	for s := 0; s < SigmaCount; s++ {
		shuffleIdx[Shuffle(s)] = s
	}
	taus := [3][4]uint8{{1, 0, 2, 3}, {0, 2, 1, 3}, {0, 1, 3, 2}}
	var walk [SigmaCount]int
	for i, tr := range schedule {
		tau, err := perm.WireShuffle(taus[tr])
		if err != nil {
			t.Fatal(err)
		}
		next, ok := shuffleIdx[tau.Then(Shuffle(walk[i]))]
		if !ok {
			t.Fatal("shuffle product escaped the group")
		}
		walk[i+1] = next
	}
	return walk
}

// canonicalLoop is the table-driven walk Canonical replaced, kept as the
// reference oracle: the schedule read from its table, each step through
// perm.ConjugateAdjacent's switch, the walk position from walk.
func canonicalLoop(f perm.Perm, walk *[SigmaCount]int) (rep perm.Perm, sigma int, inverted bool) {
	fi := f.Inverse()
	if fi == f {
		rep, sigma = f, 0
		cf := f
		for i, t := range schedule {
			cf = cf.ConjugateAdjacent(t)
			if cf < rep {
				rep, sigma = cf, walk[i+1]
			}
		}
		return rep, sigma, false
	}
	rep, sigma, inverted = f, 0, false
	if fi < rep {
		rep, inverted = fi, true
	}
	cf, cfi := f, fi
	for i, t := range schedule {
		cf = cf.ConjugateAdjacent(t)
		cfi = cfi.ConjugateAdjacent(t)
		if cf < rep {
			rep, sigma, inverted = cf, walk[i+1], false
		}
		if cfi < rep {
			rep, sigma, inverted = cfi, walk[i+1], true
		}
	}
	return rep, sigma, inverted
}

// canonicalBrute is the definition, with no kernel at all: the first
// strict minimum of perm.Conjugate(f or f⁻¹, Shuffle(s)), visiting the
// walk positions in walk order and f before f⁻¹ at each.
func canonicalBrute(f perm.Perm, walk *[SigmaCount]int) (rep perm.Perm, sigma int, inverted bool) {
	fi := f.Inverse()
	rep = ^perm.Perm(0)
	for _, s := range walk {
		if c := perm.Conjugate(f, Shuffle(s)); c < rep {
			rep, sigma, inverted = c, s, false
		}
		if c := perm.Conjugate(fi, Shuffle(s)); c < rep {
			rep, sigma, inverted = c, s, true
		}
	}
	return rep, sigma, inverted
}

// oracleInputs lists the degenerate and structured inputs every oracle
// check covers: all 32 gates, their 1024 pairwise products (the
// identity, involutions and other small classes among them), and
// random palindromic involutions.
func oracleInputs() []perm.Perm {
	var ps []perm.Perm
	for _, g := range gate.All() {
		ps = append(ps, g.Perm())
	}
	for _, g := range gate.All() {
		for _, h := range gate.All() {
			ps = append(ps, g.Perm().Then(h.Perm()))
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1000; i++ {
		ps = append(ps, randInvolution(rng))
	}
	return ps
}

// checkCanonical compares Canonical on f with both oracles — the result
// and the tie-break, i.e. the exact (rep, sigma, inverted) triple — and
// checks the witness reconstructs rep.
func checkCanonical(t testing.TB, f perm.Perm, walk *[SigmaCount]int) {
	rep, sigma, inverted := Canonical(f)
	if lr, ls, li := canonicalLoop(f, walk); lr != rep || ls != sigma || li != inverted {
		t.Fatalf("Canonical(%v) = (%v, σ%d, %v), loop walk gives (%v, σ%d, %v)", f, rep, sigma, inverted, lr, ls, li)
	}
	if br, bs, bi := canonicalBrute(f, walk); br != rep || bs != sigma || bi != inverted {
		t.Fatalf("Canonical(%v) = (%v, σ%d, %v), brute force gives (%v, σ%d, %v)", f, rep, sigma, inverted, br, bs, bi)
	}
	base := f
	if inverted {
		base = f.Inverse()
	}
	if got := perm.Conjugate(base, Shuffle(sigma)); got != rep {
		t.Fatalf("witness failed for %v: conj(base, σ%d) = %v, rep = %v (inv=%v)", f, sigma, got, rep, inverted)
	}
}

// TestWalkVisitsEveryRelabeling: the walk Canonical spells out reaches
// each of the 24 positions exactly once.
func TestWalkVisitsEveryRelabeling(t *testing.T) {
	walk := walkPositions(t)
	var seen [SigmaCount]bool
	for _, s := range walk {
		if seen[s] {
			t.Fatalf("walk %v revisits position %d", walk, s)
		}
		seen[s] = true
	}
}

// TestCanonicalMatchesOracles checks the straight-line Canonical against
// the table-driven loop and the brute-force definition, triple for
// triple, on the structured inputs and 10⁶ random permutations (10⁵
// under -short).
func TestCanonicalMatchesOracles(t *testing.T) {
	walk := walkPositions(t)
	for _, f := range oracleInputs() {
		checkCanonical(t, f, &walk)
	}
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < n; i++ {
		checkCanonical(t, randPerm(rng), &walk)
	}
}

// FuzzCanonical runs the oracle check on fuzzed inputs. A fuzzed word
// that is not a permutation seeds a random one instead. Run with
// `go test -fuzz FuzzCanonical ./internal/canon` to explore; the seed
// corpus (the structured oracle inputs plus random permutations) runs
// as a normal test.
func FuzzCanonical(f *testing.F) {
	for _, p := range oracleInputs() {
		f.Add(uint64(p))
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 100; i++ {
		f.Add(uint64(randPerm(rng)))
	}
	walk := walkPositions(f)
	f.Fuzz(func(t *testing.T, x uint64) {
		p := perm.Perm(x)
		if !p.IsValid() {
			p = randPerm(rand.New(rand.NewSource(int64(x))))
		}
		checkCanonical(t, p, &walk)
	})
}

// BenchmarkCanonical isolates the canonicalization kernel on the two
// input populations the BFS inner loop sees: general functions (one
// inversion, 46 conjugation kernels) and involutions, where the inverse
// sweep is skipped and the kernel count halves.
func BenchmarkCanonical(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	random := make([]perm.Perm, 1024)
	invs := make([]perm.Perm, 1024)
	for i := range random {
		random[i] = randPerm(rng)
		invs[i] = randInvolution(rng)
	}
	for _, tc := range []struct {
		name string
		ps   []perm.Perm
	}{{"random", random}, {"involution", invs}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var acc perm.Perm
			for i := 0; i < b.N; i++ {
				r, _, _ := Canonical(tc.ps[i&1023])
				acc ^= r
			}
			_ = acc
		})
	}
}

func BenchmarkClassSize(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	ps := make([]perm.Perm, 256)
	for i := range ps {
		ps[i] = randPerm(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += ClassSize(ps[i&255])
	}
	_ = acc
}
