package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bfs"
	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/extbuild"
	"repro/internal/gate"
	"repro/internal/perm"
	"repro/internal/service"
	"repro/internal/tablenet"
	"repro/internal/tables"
	"repro/internal/tablesio"
)

// The fleet: a small-k tier on one shard and a k = 6 tier split over
// fleetShards shards, federated behind one service.
const (
	fleetShards = 2
	// fleetSmallBelow is how much shallower the small tier is (k = 4
	// beside k = 6).
	fleetSmallBelow = 2
)

// fleetMix is the spec mix by optimal cost beyond the horizon k: each
// extra gate quarters a cost's share, as among the beyond-horizon
// windows of peephole traffic (the windows of seeded 5- and 8-wire
// circuits hold costs 7–10 about 581:170:43:12). Costs 11–12 are left
// out: each takes 0.2–6 s, too few for a p99. The specs are dealt in blocks that each hold the
// whole mix, so every stretch of the measured phase sees the same mix.
var fleetMix = []int{64, 16, 4, 1}

// Blocks of fleetMix drawn for the warm-up, the measured phase and the
// layer replays. The measured set must outlast the phase: a run that
// exhausts it ends early (reported in info).
const (
	fleetWarmBlocks   = 2
	fleetTimedBlocks  = 500
	fleetReplayBlocks = 2
)

// fleetSys is the running fleet: the shard servers, the clients the
// federation dialled, and the service over it. parts are the split
// tables the shards serve, shared with the in-process reference.
type fleetSys struct {
	dir     string
	servers []*tablenet.Server
	serving sync.WaitGroup
	clients []*tablenet.Client // small tier first, then the k tier's shards
	fed     *tablenet.Federation
	backend tables.Backend // what the service was given: fed, maybe traced
	svc     *service.Synthesizer
	parts   []*tables.Partial
	shardT  []*bfs.Result // the table behind each part
	mapped  []*bfs.Result

	build                   *extbuild.Stats
	smallBuildS, smallSaveS float64
	loadMS                  float64
}

func (s *fleetSys) close() error {
	var errs []error
	if s.svc != nil {
		errs = append(errs, s.svc.Close(context.Background()))
	}
	if s.fed != nil {
		errs = append(errs, s.fed.Close())
	} else {
		for _, c := range s.clients {
			errs = append(errs, c.Close())
		}
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Close())
	}
	s.serving.Wait()
	for _, r := range s.mapped {
		closeTable(r)
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// startFleet builds both tiers' stores, serves them over loopback and
// brings the federated service up. t, when non-nil, is wired in at the
// core→federation, federation→tier and router→shard-client seams.
func startFleet(ctx context.Context, cfg *config, dir string, t *tracer) (_ *fleetSys, err error) {
	s := &fleetSys{dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	alphabet := bfs.GateAlphabet()

	// The k tier: the out-of-core builder emits one split file per
	// shard, as revtables -out-of-core -split does.
	split := func(i int) string { return filepath.Join(dir, fmt.Sprintf("k%d.%dof%d", cfg.k, i, fleetShards)) }
	s.build, err = extbuild.Build(extbuild.Options{
		Alphabet: alphabet, K: cfg.k,
		WorkDir: filepath.Join(dir, "work"),
		SplitN:  fleetShards, SplitPath: split,
	})
	if err != nil {
		return nil, err
	}

	// The small tier: the in-memory build, persisted and loaded back.
	smallK := cfg.k - fleetSmallBelow
	start := time.Now()
	small, err := bfs.Search(alphabet, smallK, &bfs.Options{CapacityHint: capacityHint(smallK)})
	if err == nil {
		err = small.Compact()
	}
	if err != nil {
		return nil, err
	}
	s.smallBuildS = time.Since(start).Seconds()
	smallPath := filepath.Join(dir, fmt.Sprintf("k%d.tables", smallK))
	start = time.Now()
	if err := tablesio.SaveFile(smallPath, small); err != nil {
		return nil, err
	}
	s.smallSaveS = time.Since(start).Seconds()

	start = time.Now()
	var backends []tables.Backend
	loaded, _, err := tablesio.LoadFile(smallPath, alphabet, nil)
	if err != nil {
		return nil, err
	}
	s.mapped = append(s.mapped, loaded)
	local, err := tables.NewLocal(loaded)
	if err != nil {
		return nil, err
	}
	backends = append(backends, local)
	for i := 0; i < fleetShards; i++ {
		res, info, err := tablesio.LoadFile(split(i), alphabet, &tablesio.LoadOptions{AllowSplit: true})
		if err != nil {
			return nil, err
		}
		s.mapped = append(s.mapped, res)
		p, err := tables.NewPartial(res, info.Split)
		if err != nil {
			return nil, err
		}
		s.parts = append(s.parts, p)
		s.shardT = append(s.shardT, res)
		backends = append(backends, p)
	}
	s.loadMS = float64(time.Since(start).Microseconds()) / 1e3

	for _, b := range backends {
		srv, err := tablenet.NewServer(b)
		if err != nil {
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.servers = append(s.servers, srv)
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			srv.Serve(l)
		}()
		cl, err := tablenet.Dial(l.Addr().String(), nil)
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}

	wrap := func(c *tablenet.Client) tables.Backend {
		if t == nil {
			return c
		}
		return tracedClient{c, t}
	}
	var shards []tables.Backend
	for _, c := range s.clients[1:] {
		shards = append(shards, wrap(c))
	}
	router, err := tablenet.NewRouter(shards)
	if err != nil {
		return nil, err
	}
	tiers := []tables.Backend{wrap(s.clients[0]), router}
	if t != nil {
		tiers[0] = tracedTier{tiers[0], t, spTierLookup, spTierLevel}
		tiers[1] = tracedTier{router, t, spRouterLookup, spRouterLevel}
	}
	s.fed, err = tablenet.NewFederation(tiers)
	if err != nil {
		router.Close()
		return nil, err
	}
	s.backend = s.fed
	if t != nil {
		s.backend = tracedFed{s.fed, t}
	}
	s.svc, err = service.New(service.Config{K: cfg.k, Backend: s.backend})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// maxWalkTries is how many gates a walk tries for one step up before a
// spare walk takes its place: a few functions have no neighbour one
// gate costlier.
const maxWalkTries = 64

// fleetSpecs draws blocks of specs new to ref, records their optimal
// costs in it, and returns them in seeded order: each block holds
// fleetMix[j] specs of optimal cost k+1+j, shuffled. Specs come from
// walks up the cost levels: a walk starts at a random member of a
// random cost-k class and appends random library gates, keeping a gate
// when synth finds the cost grew by exactly one; the spec of every
// level it passes is used. Candidates are drawn in seeded order and
// judged in parallel, so the result depends on the seed alone.
func fleetSpecs(ctx context.Context, rng *rand.Rand, k, blocks int, synth *core.Synthesizer, ref *reference) ([]perm.Perm, error) {
	counts := synth.Backend().Meta().LevelCounts
	rep := make([]uint64, 1)
	// One spare start per block, beside the walks the first level needs.
	walks := make([]perm.Perm, blocks*(fleetMix[0]+1))
	for w := range walks {
		if err := synth.Backend().LevelKeys(ctx, k, rng.Intn(counts[k]), rep); err != nil {
			return nil, err
		}
		sh := canon.Shuffle(rng.Intn(24))
		walks[w] = sh.Inverse().Then(perm.Perm(rep[0])).Then(sh)
		if rng.Intn(2) == 1 {
			walks[w] = walks[w].Inverse()
		}
	}
	byCost := make([][]perm.Perm, len(fleetMix))
	for j, w := range fleetMix {
		// The first n walks climb to cost k+1+j; the rest reached the
		// level below too and stand in for walks that get stuck.
		n, spare := blocks*w, blocks*w
		tries := make([]int, n)
		pending := make([]int, n)
		for i := range pending {
			pending[i] = i
		}
		for len(pending) > 0 {
			cands := make([]perm.Perm, len(pending))
			for i, wi := range pending {
				cands[i] = walks[wi].Then(gate.FromIndex(rng.Intn(gate.Count)).Perm())
			}
			infos, err := answerAll(ctx, synth, cands)
			if err != nil {
				return nil, err
			}
			next := pending[:0]
			for i, wi := range pending {
				if _, seen := ref.cost[cands[i]]; !seen && infos[i].Cost == k+1+j {
					walks[wi] = cands[i]
					ref.cost[cands[i]] = k + 1 + j
					continue
				}
				if tries[wi]++; tries[wi] == maxWalkTries {
					if spare == len(walks) {
						return nil, fmt.Errorf("walks to cost %d stuck with no spare left", k+1+j)
					}
					walks[wi], tries[wi] = walks[spare], 0
					spare++
				}
				next = append(next, wi)
			}
			pending = next
		}
		walks = walks[:n]
		byCost[j] = append([]perm.Perm(nil), walks...)
	}
	var out []perm.Perm
	for b := 0; b < blocks; b++ {
		block := len(out)
		for j, w := range fleetMix {
			out = append(out, byCost[j][b*w:(b+1)*w]...)
		}
		rng.Shuffle(len(out)-block, func(x, y int) { out[block+x], out[block+y] = out[block+y], out[block+x] })
	}
	return out, nil
}

// runFleet is the wire and scan path: distinct specs beyond the
// horizon, so every query runs a meet-in-the-middle scan through the
// federation, the router and the shard clients.
func runFleet(ctx context.Context, cfg *config) (*outcome, error) {
	out := newOutcome()
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	sys, setupS, err := timeSetups(setupRounds, func(r int) (*fleetSys, error) {
		d, err := roundDir(cfg, "fleet", r)
		if err != nil {
			return nil, err
		}
		return startFleet(ctx, cfg, d, t)
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()
	cfg.logf("set up (median %.2fs, peak RSS so far %.0f MB)", setupS, peakRSSMB(os.Getpid()))

	// The reference: core over a router of the very split tables the
	// shards serve, in process, with no wire between.
	var parts []tables.Backend
	for _, p := range sys.parts {
		parts = append(parts, p)
	}
	local, err := tablenet.NewRouter(parts)
	if err != nil {
		return nil, err
	}
	defer local.Close()
	refSynth, err := core.FromBackend(local, nil, 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	ref := &reference{cost: map[perm.Perm]int{}, direct: map[perm.Perm]bool{}}
	var sets [3][]perm.Perm
	for i, blocks := range []int{fleetWarmBlocks, fleetTimedBlocks, fleetReplayBlocks} {
		if sets[i], err = fleetSpecs(ctx, rng, cfg.k, cfg.scaled(blocks), refSynth, ref); err != nil {
			return nil, err
		}
	}
	warm, timed, replay := sets[0], sets[1], sets[2]
	st, _ := statsOf(timed)
	streamInfo(out, st, ref, timed)
	cfg.logf("inputs drawn")

	specs := warm
	deal := &dealer{n: int64(len(warm))}
	loop := closedLoop{
		clients: cfg.clients,
		tamper:  cfg.tamper,
		stride:  1,
		next:    func(c int) (int, bool) { return deal.next(c) },
		do: func(ctx context.Context, _, i int) (circuit.Circuit, error) {
			ctx, s := t.start(ctx, spRequest)
			c, _, err := sys.svc.Synthesize(ctx, specs[i])
			s.end(0)
			return c, err
		},
		check: func(i int, c circuit.Circuit) error { return ref.check(specs[i], c) },
	}
	loop.d = time.Hour // until the warm-up set is used up
	out.count(loop.run(ctx))
	warmed := out.attempted
	specs, deal = timed, &dealer{n: int64(len(timed))}
	cfg.logf("warmed up")

	if !cfg.trace {
		loop.d = cfg.duration()
		r := loop.run(ctx)
		out.info["timed_set_exhausted"] = r.done >= int64(len(timed))
		if err := setEndToEnd(out, cfg, r); err != nil {
			return nil, err
		}
		out.set("setup_s", setupS, "s")
		out.set("peak_rss_mb", peakRSSMB(os.Getpid()), "MB")
		return out, nil
	}

	before := fleetCounters(sys)
	_, r := tracedPhases(ctx, cfg, out, t, loop)
	after := fleetCounters(sys)
	queries := float64(out.attempted - warmed)
	traced := float64(r.done)
	cl, lv := t.stat(spClientLookup), t.stat(spClientLevel)
	out.set("tablenet.lookup_calls_per_query", float64(cl.calls)/traced, "count")
	if cl.calls > 0 {
		out.set("tablenet.keys_per_lookup", float64(cl.keys)/float64(cl.calls), "count")
	}
	out.set("tablenet.lookup_us", cl.meanUS, "us")
	out.set("tablenet.level_calls_per_query", float64(lv.calls)/traced, "count")
	out.set("tablenet.level_us", lv.meanUS, "us")
	d := after.cache
	d.KeyHits -= before.cache.KeyHits
	d.KeyMisses -= before.cache.KeyMisses
	d.LevelHits -= before.cache.LevelHits
	d.LevelMisses -= before.cache.LevelMisses
	out.set("tablenet.key_cache_hit_share", d.KeyHitRatio(), "share")
	out.set("tablenet.level_cache_hit_share", d.LevelHitRatio(), "share")
	out.set("tablenet.coalesced", float64(after.cache.Coalesced-before.cache.Coalesced), "count")
	wire := after.cache.WireBytesRead + after.cache.WireBytesWritten - before.cache.WireBytesRead - before.cache.WireBytesWritten
	out.set("tablenet.wire_kb_per_query", float64(wire)/1024/queries, "KB")
	out.set("tablenet.retries", float64(after.cache.WireRetries-before.cache.WireRetries), "count")
	rl := t.stat(spRouterLookup)
	out.set("router.lookup_us", rl.meanUS, "us")
	out.set("router.self_us", rl.selfUS, "us")
	if p := after.smallProbes - before.smallProbes; p > 0 {
		out.set("federation.escalation_share", float64(after.smallEscalations-before.smallEscalations)/float64(p), "share")
	}
	out.set("federation.self_us", t.stat(spFedLookup, spFedLevel).selfUS, "us")
	out.set("service.cache_hit_share", hitShare(before.svc, after.svc), "share")

	b := sys.build
	out.set("extbuild.build_s", b.Elapsed.Seconds(), "s")
	out.set("extbuild.spill_written_mb", float64(b.SpillWrittenBytes)/(1<<20), "MB")
	out.set("extbuild.peak_tracked_mb", float64(b.PeakTrackedBytes)/(1<<20), "MB")
	out.set("bfs.build_s", sys.smallBuildS, "s")
	out.set("tablesio.save_s", sys.smallSaveS, "s")
	out.set("tablesio.load_ms", sys.loadMS, "ms")

	out.set("canon.ns_per_call", replayCanon(timed), "ns")
	out.set("hashtab.probe_ns", replayProbe(timed, func(key uint64) (uint16, bool) {
		return sys.shardT[tablenet.ShardOf(key, fleetShards)].LookupRaw(key)
	}), "ns")
	// The recently answered specs are still in the result cache.
	hitSet := timed[max(0, int(deal.i.Load())-512):min(int(deal.i.Load()), len(timed))]
	hit, err := replayHit(ctx, sys.svc, hitSet)
	if err != nil {
		return nil, err
	}
	out.set("service.hit_ns", hit, "ns")
	fresh, err := service.New(service.Config{K: cfg.k, Backend: sys.backend})
	if err != nil {
		return nil, err
	}
	defer fresh.Close(ctx)
	t.on.Store(true)
	cr, err := replayMiss(ctx, t, fresh, replay)
	t.on.Store(false)
	if err != nil {
		return nil, err
	}
	setCoreLayers(out, cr)
	return out, finishTrace(cfg, "fleet-scan", t, out)
}

// fleetSnapshot is the fleet's counters at one moment.
type fleetSnapshot struct {
	cache                         tables.CacheStats
	smallProbes, smallEscalations uint64
	svc                           service.Stats
}

func fleetCounters(s *fleetSys) fleetSnapshot {
	var snap fleetSnapshot
	for _, c := range s.clients {
		snap.cache.Add(c.CacheStats())
	}
	ts := s.fed.TierStats()
	snap.smallProbes, snap.smallEscalations = ts[0].Probes, ts[0].Escalations
	snap.svc = s.svc.Stats()
	return snap
}
