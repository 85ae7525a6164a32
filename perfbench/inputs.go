package main

import (
	"math/bits"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/peephole"
	"repro/internal/perm"
)

// peepholeGates is the length of one generated wide circuit: 20 000
// gates give about 11 400 windows.
const peepholeGates = 20000

// maxWindowGates caps a window's length, and so its optimal cost, at
// 10. Longer windows (about 0.3 % of a 5-wire circuit's, none of most
// 8-wire ones) may cost 11–15: each answer takes 0.2–6 s, stalling a
// client, or lies beyond the horizon of 12.
const maxWindowGates = 10

// peepholeWindows appends, in circuit order, the specification of every
// 4-wire window a left-to-right peephole pass over c would hand to the
// synthesizer. A window starts at each gate and grows while the union
// support stays within four wires (peephole.Optimizer's rule); windows
// of fewer than two gates are skipped, as the optimizer skips them, and
// so are windows longer than maxWindowGates, counted in long. The pass
// is replayed without splicing, so every window of the input is asked
// for exactly once.
func peepholeWindows(c peephole.Circuit, out []perm.Perm, long *int) []perm.Perm {
	gs := c.Gates
	for i := range gs {
		var support uint32
		j := i
		for j < len(gs) {
			next := support | gs[j].Support()
			if bits.OnesCount32(gs[j].Controls) > 3 || bits.OnesCount32(next) > 4 {
				break
			}
			support = next
			j++
		}
		switch {
		case j-i < 2:
		case j-i > maxWindowGates:
			*long++
		default:
			out = append(out, narrowWindow(gs[i:j], support))
		}
	}
	return out
}

// narrowWindow relabels a window's wires onto 0..3 in increasing order
// and returns the 4-bit permutation it computes.
func narrowWindow(window []peephole.Gate, support uint32) perm.Perm {
	var local [32]int
	n := 0
	for w := 0; w < 32; w++ {
		if support>>uint(w)&1 == 1 {
			local[w] = n
			n++
		}
	}
	narrow := make(circuit.Circuit, len(window))
	for i, g := range window {
		var controls uint8
		for w := 0; w < 32; w++ {
			if g.Controls>>uint(w)&1 == 1 {
				controls |= 1 << uint(local[w])
			}
		}
		narrow[i] = gate.MustNew(local[g.Target], controls)
	}
	return narrow.Perm()
}

// windowStream generates the peephole windows of count seeded random
// circuits of the given width, concatenated in order, and counts the
// windows left out for their length.
func windowStream(rng *rand.Rand, width, count int) (stream []perm.Perm, long int) {
	for i := 0; i < count; i++ {
		stream = peepholeWindows(peephole.Random(width, peepholeGates, rng.Intn), stream, &long)
	}
	return stream, long
}

// streamStats describes a spec stream: how many distinct specs it
// holds and which share of its entries repeat an earlier one.
type streamStats struct {
	Specs       int     `json:"specs"`
	Distinct    int     `json:"distinct"`
	RepeatShare float64 `json:"repeat_share"`
	// LongWindows counts windows left out for exceeding maxWindowGates.
	LongWindows int `json:"long_windows_left_out"`
}

func statsOf(specs []perm.Perm) (streamStats, []perm.Perm) {
	seen := make(map[perm.Perm]struct{}, len(specs)/4)
	var distinct []perm.Perm
	for _, f := range specs {
		if _, ok := seen[f]; !ok {
			seen[f] = struct{}{}
			distinct = append(distinct, f)
		}
	}
	st := streamStats{Specs: len(specs), Distinct: len(distinct)}
	if len(specs) > 0 {
		st.RepeatShare = 1 - float64(len(distinct))/float64(len(specs))
	}
	return st, distinct
}
