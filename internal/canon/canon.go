// Package canon implements the symmetry reduction of paper §3.2: the
// equivalence of 4-bit reversible functions under simultaneous
// input/output wire relabeling (24 conjugations) and inversion, an
// almost-48× reduction of the breadth-first search frontier.
//
// The equivalence class of f is {conj(f,σ), conj(f⁻¹,σ) : σ ∈ S₄} where
// conj(f,σ) = gσ⁻¹ ∘ f ∘ gσ and gσ is the state permutation induced by
// the wire relabeling σ. The canonical representative is the minimum of
// the (up to) 48 class members under plain uint64 comparison of the
// packed word — a single unsigned comparison per candidate, exactly as in
// paper §3.3.
//
// All 24 conjugates are visited by a plain-changes (Steinhaus–Johnson–
// Trotter) walk through S₄: 23 conjugations by adjacent wire
// transpositions, each a 14-operation kernel (perm.Conj01, Conj12,
// Conj23). Canonical spells the fixed walk out as straight-line code —
// every step calls its inlined kernel and carries its walk position as
// a constant — because it is the hot call of both the BFS and every
// meet-in-the-middle scan. On a shared 2-core x86-64 host
// (BenchmarkCanonical, go1.24, medians of 9) that takes a general
// function from 643 to 258 ns and an involution from 327 to 147 ns
// against the table-driven loop through perm.ConjugateAdjacent's
// switch, which the tests keep as the reference oracle.
package canon

import (
	"fmt"

	"repro/internal/gate"
	"repro/internal/perm"
)

// SigmaCount is the number of wire relabelings, |S₄|.
const SigmaCount = 24

// MaxClassSize is the largest possible equivalence class: 24 relabelings
// × {f, f⁻¹}.
const MaxClassSize = 48

var (
	// sigmas lists the 24 wire relabelings in plain-changes order;
	// sigmas[0] is the identity.
	sigmas [SigmaCount][4]uint8
	// schedule[i] is the adjacent transposition index (0,1,2) whose
	// conjugation kernel advances the walk from step i to step i+1.
	// Canonical spells the same walk out in code.
	schedule [SigmaCount - 1]int
	// shuffles[s] is the state permutation gσ of sigmas[s].
	shuffles [SigmaCount]perm.Perm
	// inverseIdx[s] is the position holding the inverse relabeling.
	inverseIdx [SigmaCount]int
	// conjGateTable[s][gi] is the gate computing
	// Conjugate(gate.FromIndex(gi).Perm(), shuffles[s]).
	conjGateTable [SigmaCount][gate.Count]gate.Gate
)

// sjt enumerates S₄ by plain changes, returning the permutations and the
// swap positions (0, 1 or 2: the index of the left element of the swapped
// adjacent pair) between consecutive permutations.
func sjt() (perms [][4]uint8, swaps []int) {
	arr := [4]uint8{0, 1, 2, 3}
	dir := [4]int{-1, -1, -1, -1}
	perms = append(perms, arr)
	for {
		// Find the largest mobile element (one whose direction points at a
		// smaller neighbor).
		mobile := -1
		for i := 0; i < 4; i++ {
			j := i + dir[i]
			if j < 0 || j > 3 || arr[j] > arr[i] {
				continue
			}
			if mobile < 0 || arr[i] > arr[mobile] {
				mobile = i
			}
		}
		if mobile < 0 {
			return perms, swaps
		}
		j := mobile + dir[mobile]
		swaps = append(swaps, min(mobile, j))
		arr[mobile], arr[j] = arr[j], arr[mobile]
		dir[mobile], dir[j] = dir[j], dir[mobile]
		// Reverse direction of everything larger than the moved element.
		for i := 0; i < 4; i++ {
			if arr[i] > arr[j] {
				dir[i] = -dir[i]
			}
		}
		perms = append(perms, arr)
	}
}

func init() {
	perms, swaps := sjt()
	if len(perms) != SigmaCount || len(swaps) != SigmaCount-1 {
		panic(fmt.Sprintf("canon: plain changes produced %d perms, %d swaps", len(perms), len(swaps)))
	}
	for i, s := range perms {
		sigmas[i] = s
		g, err := perm.WireShuffle(s)
		if err != nil {
			panic(err)
		}
		shuffles[i] = g
	}
	copy(schedule[:], swaps)

	shuffleIdx := make(map[perm.Perm]int, SigmaCount)
	for i, g := range shuffles {
		shuffleIdx[g] = i
	}
	for s := 0; s < SigmaCount; s++ {
		inv, ok := shuffleIdx[shuffles[s].Inverse()]
		if !ok {
			panic("canon: shuffle inverse escaped the group")
		}
		inverseIdx[s] = inv
	}

	// Gate conjugation tables: wire relabeling maps library gates to
	// library gates (paper §3.2 — "their conjugacy classes consist of
	// gates").
	gateOf := make(map[perm.Perm]gate.Gate, gate.Count)
	for _, g := range gate.All() {
		gateOf[g.Perm()] = g
	}
	for s := 0; s < SigmaCount; s++ {
		for gi := 0; gi < gate.Count; gi++ {
			g := gate.FromIndex(gi)
			p := perm.Conjugate(g.Perm(), shuffles[s])
			cg, ok := gateOf[p]
			if !ok {
				panic(fmt.Sprintf("canon: conjugate of gate %v by σ%d is not a gate", g, s))
			}
			conjGateTable[s][gi] = cg
		}
	}
}

// Sigma returns the s-th wire relabeling in the package's fixed
// plain-changes order; Sigma(0) is the identity.
func Sigma(s int) [4]uint8 { return sigmas[s] }

// Shuffle returns the state permutation gσ of the s-th relabeling.
func Shuffle(s int) perm.Perm { return shuffles[s] }

// InverseSigma returns the index of the relabeling inverse to the s-th.
func InverseSigma(s int) int { return inverseIdx[s] }

// ConjugateGate returns the library gate computing the conjugation of g
// by the s-th relabeling's shuffle: Conjugate(g.Perm(), Shuffle(s)).
func ConjugateGate(g gate.Gate, s int) gate.Gate {
	return conjGateTable[s][g.Index()]
}

// Canonical returns the canonical representative of f's equivalence
// class, together with a witness: rep = Conjugate(base, Shuffle(sigma))
// where base is f when inverted is false and f.Inverse() when true.
//
// The representative is the minimum packed word over the ≤48 class
// members; equivalent functions (and inverses) therefore canonicalize to
// the identical representative. Ties go to the first minimum in walk
// order (f, then f⁻¹, then each step's conjugate of f before that of
// f⁻¹), so the witness is a fixed function of f.
//
// The plain-changes walk is spelled out step by step: each line calls
// the step's inlined conjugation kernel and carries the walk position
// it reaches as a constant, with no schedule or position table read.
func Canonical(f perm.Perm) (rep perm.Perm, sigma int, inverted bool) {
	fi := f.Inverse()
	if fi == f {
		// Involution: the inverse orbit coincides with the direct one, so
		// the second sweep — half the conjugation kernels and comparisons
		// of the general case — is pure repetition. Involutions are not
		// rare in the BFS inner loop (every alphabet element is one, and
		// palindromic products stay closed under inversion), so this
		// halves the canonicalization cost exactly where Table 1 says the
		// time goes.
		rep, sigma = f, 0
		cf := f
		cf = cf.Conj23()
		rep, sigma = least1(rep, sigma, cf, 1)
		cf = cf.Conj12()
		rep, sigma = least1(rep, sigma, cf, 6)
		cf = cf.Conj01()
		rep, sigma = least1(rep, sigma, cf, 17)
		cf = cf.Conj23()
		rep, sigma = least1(rep, sigma, cf, 18)
		cf = cf.Conj01()
		rep, sigma = least1(rep, sigma, cf, 5)
		cf = cf.Conj12()
		rep, sigma = least1(rep, sigma, cf, 2)
		cf = cf.Conj23()
		rep, sigma = least1(rep, sigma, cf, 7)
		cf = cf.Conj01()
		rep, sigma = least1(rep, sigma, cf, 16)
		cf = cf.Conj23()
		rep, sigma = least1(rep, sigma, cf, 21)
		cf = cf.Conj12()
		rep, sigma = least1(rep, sigma, cf, 10)
		cf = cf.Conj01()
		rep, sigma = least1(rep, sigma, cf, 13)
		cf = cf.Conj23()
		rep, sigma = least1(rep, sigma, cf, 12)
		cf = cf.Conj01()
		rep, sigma = least1(rep, sigma, cf, 11)
		cf = cf.Conj12()
		rep, sigma = least1(rep, sigma, cf, 20)
		cf = cf.Conj23()
		rep, sigma = least1(rep, sigma, cf, 15)
		cf = cf.Conj01()
		rep, sigma = least1(rep, sigma, cf, 8)
		cf = cf.Conj23()
		rep, sigma = least1(rep, sigma, cf, 3)
		cf = cf.Conj12()
		rep, sigma = least1(rep, sigma, cf, 4)
		cf = cf.Conj01()
		rep, sigma = least1(rep, sigma, cf, 19)
		cf = cf.Conj23()
		rep, sigma = least1(rep, sigma, cf, 14)
		cf = cf.Conj01()
		rep, sigma = least1(rep, sigma, cf, 9)
		cf = cf.Conj12()
		rep, sigma = least1(rep, sigma, cf, 22)
		cf = cf.Conj23()
		rep, sigma = least1(rep, sigma, cf, 23)
		return rep, sigma, false
	}
	rep, sigma, inverted = f, 0, false
	if fi < rep {
		rep, inverted = fi, true
	}
	cf, cfi := f, fi
	cf, cfi = cf.Conj23(), cfi.Conj23()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 1)
	cf, cfi = cf.Conj12(), cfi.Conj12()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 6)
	cf, cfi = cf.Conj01(), cfi.Conj01()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 17)
	cf, cfi = cf.Conj23(), cfi.Conj23()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 18)
	cf, cfi = cf.Conj01(), cfi.Conj01()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 5)
	cf, cfi = cf.Conj12(), cfi.Conj12()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 2)
	cf, cfi = cf.Conj23(), cfi.Conj23()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 7)
	cf, cfi = cf.Conj01(), cfi.Conj01()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 16)
	cf, cfi = cf.Conj23(), cfi.Conj23()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 21)
	cf, cfi = cf.Conj12(), cfi.Conj12()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 10)
	cf, cfi = cf.Conj01(), cfi.Conj01()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 13)
	cf, cfi = cf.Conj23(), cfi.Conj23()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 12)
	cf, cfi = cf.Conj01(), cfi.Conj01()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 11)
	cf, cfi = cf.Conj12(), cfi.Conj12()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 20)
	cf, cfi = cf.Conj23(), cfi.Conj23()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 15)
	cf, cfi = cf.Conj01(), cfi.Conj01()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 8)
	cf, cfi = cf.Conj23(), cfi.Conj23()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 3)
	cf, cfi = cf.Conj12(), cfi.Conj12()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 4)
	cf, cfi = cf.Conj01(), cfi.Conj01()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 19)
	cf, cfi = cf.Conj23(), cfi.Conj23()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 14)
	cf, cfi = cf.Conj01(), cfi.Conj01()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 9)
	cf, cfi = cf.Conj12(), cfi.Conj12()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 22)
	cf, cfi = cf.Conj23(), cfi.Conj23()
	rep, sigma, inverted = least2(rep, sigma, inverted, cf, cfi, 23)
	return rep, sigma, inverted
}

// least1 folds one walk step's conjugate, reached at walk position s,
// into the running minimum; an earlier candidate keeps a tie.
func least1(rep perm.Perm, sigma int, cf perm.Perm, s int) (perm.Perm, int) {
	if cf < rep {
		return cf, s
	}
	return rep, sigma
}

// least2 folds one walk step's two conjugates (of f, then of f⁻¹) into
// the running minimum; an earlier candidate keeps a tie.
func least2(rep perm.Perm, sigma int, inverted bool, cf, cfi perm.Perm, s int) (perm.Perm, int, bool) {
	if cf < rep {
		rep, sigma, inverted = cf, s, false
	}
	if cfi < rep {
		rep, sigma, inverted = cfi, s, true
	}
	return rep, sigma, inverted
}

// Rep returns just the canonical representative of f's class.
func Rep(f perm.Perm) perm.Perm {
	rep, _, _ := Canonical(f)
	return rep
}

// ForEachVariant calls fn on every member of f's equivalence class, in a
// fixed order, possibly with repeats when the class is degenerate (class
// size < 48). It stops early if fn returns false. This is the inner
// enumeration of the meet-in-the-middle search (paper Algorithm 1): all
// functions of size i are exactly the variants of the stored canonical
// representatives of size i.
//
// When f is an involution the inverse orbit repeats the direct one
// member for member, so only the 24 conjugates are visited — half the
// kernels, and half the candidate probes for the search loops built on
// top.
func ForEachVariant(f perm.Perm, fn func(perm.Perm) bool) {
	fi := f.Inverse()
	if fi == f {
		if !fn(f) {
			return
		}
		cf := f
		for _, t := range schedule {
			cf = cf.ConjugateAdjacent(t)
			if !fn(cf) {
				return
			}
		}
		return
	}
	if !fn(f) || !fn(fi) {
		return
	}
	cf, cfi := f, fi
	for _, t := range schedule {
		cf = cf.ConjugateAdjacent(t)
		cfi = cfi.ConjugateAdjacent(t)
		if !fn(cf) || !fn(cfi) {
			return
		}
	}
}

// Class returns the distinct members of f's equivalence class in
// ascending packed-word order. Its length divides into the 16!-element
// space the way paper Table 4's "Functions" and "Reduced Functions"
// columns relate.
func Class(f perm.Perm) []perm.Perm {
	seen := make(map[perm.Perm]struct{}, MaxClassSize)
	ForEachVariant(f, func(v perm.Perm) bool {
		seen[v] = struct{}{}
		return true
	})
	out := make([]perm.Perm, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ClassSize returns the number of distinct members of f's class (≤ 48).
func ClassSize(f perm.Perm) int {
	// The variant walk yields at most 48 values (24 for involutions, with
	// repeats); insertion-sort them into a stack array and count runs —
	// no allocation and far fewer comparisons than a pairwise scan on
	// this hot path (Result.FullCount calls this once per
	// representative).
	var members [MaxClassSize]perm.Perm
	n := 0
	ForEachVariant(f, func(v perm.Perm) bool {
		members[n] = v
		n++
		return true
	})
	for i := 1; i < n; i++ {
		v := members[i]
		j := i
		for ; j > 0 && members[j-1] > v; j-- {
			members[j] = members[j-1]
		}
		members[j] = v
	}
	distinct := 1
	for i := 1; i < n; i++ {
		if members[i] != members[i-1] {
			distinct++
		}
	}
	return distinct
}
