package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bfs"
	"repro/internal/canon"
	"repro/internal/perm"
	"repro/internal/service"
	"repro/internal/tablesio"
)

// The replays price one layer at a time over the workload's own inputs.
// Each runs a bare and an instrumented pass in interleaved pairs,
// alternating which goes first, so machine drift cancels; the layer's
// cost is the median per-item difference.
const pairRounds = 9

// sink keeps the compiler from discarding replay loops.
var sink uint64

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}

func pairedNS(n int, bare, instr func()) float64 {
	timeIt := func(fn func()) time.Duration {
		t := time.Now()
		fn()
		return time.Since(t)
	}
	diffs := make([]float64, pairRounds)
	for r := range diffs {
		var tb, ti time.Duration
		if r%2 == 0 {
			tb, ti = timeIt(bare), timeIt(instr)
		} else {
			ti, tb = timeIt(instr), timeIt(bare)
		}
		diffs[r] = float64(ti-tb) / float64(n)
	}
	return median(diffs)
}

// replayCanon prices canon.Rep per call.
func replayCanon(specs []perm.Perm) float64 {
	return pairedNS(len(specs), func() {
		for _, f := range specs {
			sink ^= uint64(f)
		}
	}, func() {
		for _, f := range specs {
			sink ^= uint64(canon.Rep(f))
		}
	})
}

// replayProbe prices one frozen-table probe of a canonical key.
func replayProbe(specs []perm.Perm, lookup func(key uint64) (uint16, bool)) float64 {
	return pairedNS(len(specs), func() {
		for _, f := range specs {
			sink ^= uint64(canon.Rep(f))
		}
	}, func() {
		for _, f := range specs {
			v, _ := lookup(uint64(canon.Rep(f)))
			sink ^= uint64(canon.Rep(f)) ^ uint64(v)
		}
	})
}

// replayHit prices a result-cache hit of service.Synthesize. specs must
// fit the cache; they are asked once before the pairs so every timed
// call hits.
func replayHit(ctx context.Context, svc *service.Synthesizer, specs []perm.Perm) (float64, error) {
	var err error
	ask := func() {
		for _, f := range specs {
			if _, _, e := svc.Synthesize(ctx, f); e != nil && err == nil {
				err = e
			}
		}
	}
	ask()
	ns := pairedNS(len(specs), func() {
		for _, f := range specs {
			sink ^= uint64(f)
		}
	}, ask)
	return ns, err
}

// coreReplay is what replayMiss measures.
type coreReplay struct {
	serviceSelfNS float64 // Synthesize minus SynthesizeInfoCtx on the same miss
	candidates    float64 // core.Info.Candidates per query
	directShare   float64
	coreSelfUS    float64 // core time minus time inside the Backend decorator
}

// replayMiss pairs, spec by spec, a bare core.SynthesizeInfoCtx call
// with a service.Synthesize call that misses the result cache. svc must
// be fresh (its cache empty) and specs distinct; the core it wraps is
// the one called bare, so both sides of a pair do the same table work.
func replayMiss(ctx context.Context, t *tracer, svc *service.Synthesizer, specs []perm.Perm) (coreReplay, error) {
	synth := svc.Core()
	diffs := make([]float64, 0, len(specs))
	var cands int64
	direct := 0
	for i, f := range specs {
		bare := func() (time.Duration, error) {
			cctx, s := t.start(ctx, spCore)
			start := time.Now()
			_, info, err := synth.SynthesizeInfoCtx(cctx, f)
			d := time.Since(start)
			s.end(0)
			cands += info.Candidates
			if info.Direct {
				direct++
			}
			return d, err
		}
		full := func() (time.Duration, error) {
			start := time.Now()
			_, _, err := svc.Synthesize(ctx, f)
			return time.Since(start), err
		}
		var db, df time.Duration
		var eb, ef error
		if i%2 == 0 {
			db, eb = bare()
			df, ef = full()
		} else {
			df, ef = full()
			db, eb = bare()
		}
		if eb != nil || ef != nil {
			return coreReplay{}, fmt.Errorf("replay of %v: core %v, service %v", f, eb, ef)
		}
		diffs = append(diffs, float64(df-db))
	}
	r := coreReplay{serviceSelfNS: median(diffs)}
	if n := len(specs); n > 0 {
		r.candidates = float64(cands) / float64(n)
		r.directShare = float64(direct) / float64(n)
	}
	if t != nil {
		r.coreSelfUS = t.stat(spCore).selfUS
	}
	return r, nil
}

// replayTables times the in-memory table path layer by layer — the
// parallel bfs.Search core.New runs, tablesio.SaveFile and
// tablesio.LoadFile — and returns the loaded table.
func replayTables(dir string, k int) (buildS, saveS, loadMS float64, res *bfs.Result, err error) {
	start := time.Now()
	built, err := bfs.Search(bfs.GateAlphabet(), k, &bfs.Options{CapacityHint: capacityHint(k)})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if err := built.Compact(); err != nil {
		return 0, 0, 0, nil, err
	}
	buildS = time.Since(start).Seconds()
	path := filepath.Join(dir, "replay.tables")
	start = time.Now()
	if err := tablesio.SaveFile(path, built); err != nil {
		return 0, 0, 0, nil, err
	}
	saveS = time.Since(start).Seconds()
	built = nil
	start = time.Now()
	res, _, err = tablesio.LoadFile(path, bfs.GateAlphabet(), nil)
	loadMS = float64(time.Since(start).Microseconds()) / 1e3
	if rerr := os.Remove(path); err == nil && rerr != nil {
		err = rerr
	}
	return buildS, saveS, loadMS, res, err
}

// closeTable unmaps a loaded table's store, if it is mapped. A read-only
// mapping has nothing to flush, so the error is dropped.
func closeTable(res *bfs.Result) {
	if res.Frozen != nil {
		_ = res.Frozen.Close()
	}
}

// capacityHint is the table pre-size core.New passes bfs.Search.
func capacityHint(k int) int {
	if k < len(bfs.GateReducedCounts) {
		return int(bfs.CumulativeGateReduced(k))
	}
	return 0
}

// missSample picks up to n distinct specs, spread evenly over distinct.
func missSample(distinct []perm.Perm, n int) []perm.Perm {
	if len(distinct) <= n {
		return distinct
	}
	out := make([]perm.Perm, n)
	for i := range out {
		out[i] = distinct[i*len(distinct)/n]
	}
	return out
}

// localLayers runs the in-process replays shared by the workloads whose
// table lives in one process: canon, the frozen probe, the cache hit
// and the miss path, all over the same table res.
func localLayers(ctx context.Context, out *outcome, t *tracer, res *bfs.Result, stream, distinct []perm.Perm) error {
	out.set("canon.ns_per_call", replayCanon(stream), "ns")
	out.set("hashtab.probe_ns", replayProbe(stream, res.LookupRaw), "ns")
	svc, err := service.New(service.Config{Tables: res})
	if err != nil {
		return err
	}
	defer svc.Close(ctx)
	t.on.Store(true)
	cr, err := replayMiss(ctx, t, svc, missSample(distinct, 2000))
	t.on.Store(false)
	if err != nil {
		return err
	}
	hit, err := replayHit(ctx, svc, missSample(distinct, 1024))
	if err != nil {
		return err
	}
	setCoreLayers(out, cr)
	out.set("service.hit_ns", hit, "ns")
	return nil
}

func setCoreLayers(out *outcome, cr coreReplay) {
	out.set("service.self_ns", cr.serviceSelfNS, "ns")
	out.set("core.candidates_per_query", cr.candidates, "count")
	out.set("core.direct_share", cr.directShare, "share")
	out.set("core.self_us", cr.coreSelfUS, "us")
}
