package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/service"
)

// peepholeCircuits is how many seeded 8-wire circuits feed the peephole
// stream. One circuit's windows (~2 700 distinct) fit the result cache;
// consecutive circuits share most of them.
const peepholeCircuits = 8

// peepholeStride times every 64th request: a cache hit costs about as
// much as two clock reads, and a 12 s phase still keeps some 300 000
// samples.
const peepholeStride = 64

// warmup is the untimed closed-loop phase that fills the caches before
// a measured phase.
const warmup = time.Second

// localSys is a service over an in-process table, and the directory
// its store was persisted to.
type localSys struct {
	svc *service.Synthesizer
	dir string
}

func (s *localSys) close() error {
	err := s.svc.Close(context.Background())
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// runPeephole is the in-process library path: the windows a peephole
// pass extracts, in circuit order, answered by service.Synthesize over
// a table the service builds and persists itself.
func runPeephole(ctx context.Context, cfg *config) (*outcome, error) {
	out := newOutcome()
	rng := rand.New(rand.NewSource(cfg.seed))
	stream, long := windowStream(rng, 8, cfg.scaled(peepholeCircuits))
	st, distinct := statsOf(stream)
	st.LongWindows = long

	sys, setupS, err := timeSetups(setupRounds, func(r int) (*localSys, error) {
		d, err := roundDir(cfg, "peephole", r)
		if err != nil {
			return nil, err
		}
		svc, err := service.New(service.Config{K: cfg.k, TablesPath: filepath.Join(d, "tables")})
		if err != nil {
			return nil, err
		}
		return &localSys{svc, d}, nil
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()
	cfg.logf("set up (median %.2fs, peak RSS so far %.0f MB)", setupS, peakRSSMB(os.Getpid()))
	svc := sys.svc
	ref, err := newReference(ctx, svc.Core(), distinct)
	if err != nil {
		return nil, err
	}
	streamInfo(out, st, ref, stream)
	cfg.logf("reference answers ready")

	t := newTracer()
	cur := newCursor(cfg.clients, len(stream))
	loop := closedLoop{
		clients: cfg.clients,
		tamper:  cfg.tamper,
		stride:  peepholeStride,
		next:    cur.next,
		do: func(ctx context.Context, _, i int) (circuit.Circuit, error) {
			ctx, s := t.start(ctx, spRequest)
			c, _, err := svc.Synthesize(ctx, stream[i])
			s.end(0)
			return c, err
		},
		check: func(i int, c circuit.Circuit) error { return ref.check(stream[i], c) },
	}
	loop.d = warmup
	out.count(loop.run(ctx))

	if !cfg.trace {
		loop.d = cfg.duration()
		if err := setEndToEnd(out, cfg, loop.run(ctx)); err != nil {
			return nil, err
		}
		out.set("setup_s", setupS, "s")
		out.set("peak_rss_mb", peakRSSMB(os.Getpid()), "MB")
		return out, nil
	}

	before := svc.Stats()
	tracedPhases(ctx, cfg, out, t, loop)
	after := svc.Stats()
	out.set("service.cache_hit_share", hitShare(before, after), "share")

	buildS, saveS, loadMS, res, err := replayTables(cfg.dir, cfg.k)
	if err != nil {
		return nil, err
	}
	defer closeTable(res)
	out.set("bfs.build_s", buildS, "s")
	out.set("tablesio.save_s", saveS, "s")
	out.set("tablesio.load_ms", loadMS, "ms")
	if err := localLayers(ctx, out, t, res, stream, distinct); err != nil {
		return nil, err
	}
	if err := httpLayers(ctx, cfg, out, stream, ref); err != nil {
		return nil, err
	}
	return out, finishTrace(cfg, "peephole", t, out)
}

// streamInfo records a spec stream's realised properties.
func streamInfo(out *outcome, st streamStats, ref *reference, stream []perm.Perm) {
	hist, mitm := ref.costHistogram(stream)
	out.info["stream"] = st
	out.info["result_lru_capacity"] = service.DefaultCacheSize
	out.info["cost_histogram"] = hist
	out.info["mitm_share"] = mitm
}

func hitShare(before, after service.Stats) float64 {
	hits := after.CacheHits - before.CacheHits
	if n := hits + after.CacheMisses - before.CacheMisses; n > 0 {
		return float64(hits) / float64(n)
	}
	return 0
}

// tracedSlices is how many untraced/traced slice pairs a traced run
// alternates through, so drift and warm-up weigh on both sides alike.
const tracedSlices = 4

// tracedPhases runs the traced run's measured phase as alternating
// untraced and traced slices, half of the time each, and returns
// each side's requests. trace.overhead_share compares the two sides'
// throughput.
func tracedPhases(ctx context.Context, cfg *config, out *outcome, t *tracer, loop closedLoop) (untraced, traced loopResult) {
	loop.d = cfg.duration() / (2 * tracedSlices)
	for i := 0; i < tracedSlices; i++ {
		u := loop.run(ctx)
		t.on.Store(true)
		r := loop.run(ctx)
		t.on.Store(false)
		out.count(u)
		out.count(r)
		untraced.add(u)
		traced.add(r)
	}
	out.set("trace.overhead_share", 1-traced.meanQPS()/untraced.meanQPS(), "share")
	return untraced, traced
}
