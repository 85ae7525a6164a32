package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/tablenet"
	"repro/internal/tables"
)

// Span names. Every span is recorded from the benchmark's own files:
// around the calls the closed loop and the replays make, and by the
// tables.Backend decorators below at the core→federation,
// federation→tier and router→shard-client seams.
const (
	spRequest      = iota // one closed-loop request
	spCore                // core.Synthesizer.SynthesizeInfoCtx in a replay
	spFedLookup           // core → federation, LookupBatch(Bounded)
	spFedLevel            // core → federation, LevelKeys
	spTierLookup          // federation → the small-k tier
	spTierLevel           //
	spRouterLookup        // federation → the k = 6 tier, which is a Router
	spRouterLevel         //
	spClientLookup        // router → shard client (and the small tier's client)
	spClientLevel         //
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "core", "federation.lookup", "federation.level",
	"tier.lookup", "tier.level", "router.lookup", "router.level",
	"client.lookup", "client.level",
}

// maxKeptSpans bounds the spans kept for the trace file; the per-name
// aggregates count every span.
const maxKeptSpans = 1 << 16

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Keys   int    `json:"keys,omitempty"`
}

// agg accumulates one span name: calls, keys, busy time, and self time
// (busy time minus the part its child spans cover).
type agg struct {
	calls, keys, ns, selfNS atomic.Int64
}

// tracer records spans while on. Off, a decorator costs one atomic load.
type tracer struct {
	on    atomic.Bool
	base  time.Time
	ids   atomic.Uint64
	kept  []span
	nkept atomic.Int64
	aggs  [numSpanNames]agg
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), kept: make([]span, maxKeptSpans)}
}

type spanKey struct{}

// active is an open span. Children add their durations to it when they
// end; maxChild is for parents whose children run concurrently.
type active struct {
	t        *tracer
	name     int
	id, req  uint64
	parent   *active
	start    time.Time
	sumChild atomic.Int64
	maxChild atomic.Int64
	// overlapping children: self time subtracts the slowest, not the sum.
	overlapping bool
}

// start opens a span under the span ctx carries (if any). It returns
// ctx unchanged and a nil span while tracing is off.
func (t *tracer) start(ctx context.Context, name int) (context.Context, *active) {
	if t == nil || !t.on.Load() {
		return ctx, nil
	}
	a := &active{t: t, name: name, id: t.ids.Add(1), start: time.Now()}
	if p, ok := ctx.Value(spanKey{}).(*active); ok {
		a.parent, a.req = p, p.req
	} else {
		a.req = a.id
	}
	a.overlapping = name == spRouterLookup || name == spRouterLevel
	return context.WithValue(ctx, spanKey{}, a), a
}

func (a *active) end(keys int) {
	if a == nil {
		return
	}
	end := time.Now()
	d := end.Sub(a.start).Nanoseconds()
	covered := a.sumChild.Load()
	if a.overlapping {
		covered = a.maxChild.Load()
	}
	g := &a.t.aggs[a.name]
	g.calls.Add(1)
	g.keys.Add(int64(keys))
	g.ns.Add(d)
	g.selfNS.Add(d - covered)
	var parent uint64
	if p := a.parent; p != nil {
		parent = p.id
		p.sumChild.Add(d)
		for m := p.maxChild.Load(); d > m && !p.maxChild.CompareAndSwap(m, d); m = p.maxChild.Load() {
		}
	}
	if i := a.t.nkept.Add(1) - 1; i < maxKeptSpans {
		a.t.kept[i] = span{
			ID: a.id, Parent: parent, Req: a.req, Name: spanNames[a.name],
			Start: a.start.Sub(a.t.base).Nanoseconds(), End: end.Sub(a.t.base).Nanoseconds(), Keys: keys,
		}
	}
}

// stat is the aggregate of one or more span names.
type stat struct {
	calls, keys    int64
	meanUS, selfUS float64
}

// stat merges the aggregates of the given span names.
func (t *tracer) stat(names ...int) stat {
	var calls, keys, ns, self int64
	for _, n := range names {
		g := &t.aggs[n]
		calls += g.calls.Load()
		keys += g.keys.Load()
		ns += g.ns.Load()
		self += g.selfNS.Load()
	}
	s := stat{calls: calls, keys: keys}
	if calls > 0 {
		s.meanUS = float64(ns) / float64(calls) / 1e3
		s.selfUS = float64(self) / float64(calls) / 1e3
	}
	return s
}

// write stores the run's counts and the kept spans as JSON lines: the
// first line holds the per-layer metrics and counters, each further
// line one span. It is called once, after the run has ended.
func (t *tracer) write(path string, counts map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := min(t.nkept.Load(), maxKeptSpans)
	counts["spans_recorded"] = t.ids.Load()
	counts["spans_kept"] = n
	err = enc.Encode(counts)
	for i := int64(0); i < n && err == nil; i++ {
		err = enc.Encode(t.kept[i])
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedFed is the core→federation seam. Embedding keeps every
// optional interface the federation implements (bounded lookups, tier
// stats, cache stats, tier resolution) visible to core and service.
type tracedFed struct {
	*tablenet.Federation
	t *tracer
}

func (f tracedFed) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	ctx, s := f.t.start(ctx, spFedLookup)
	err := f.Federation.LookupBatch(ctx, keys, vals, found)
	s.end(len(keys))
	return err
}

func (f tracedFed) LookupBatchBounded(ctx context.Context, keys []uint64, vals []uint16, found []bool, bound int) error {
	ctx, s := f.t.start(ctx, spFedLookup)
	err := f.Federation.LookupBatchBounded(ctx, keys, vals, found, bound)
	s.end(len(keys))
	return err
}

func (f tracedFed) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	ctx, s := f.t.start(ctx, spFedLevel)
	err := f.Federation.LevelKeys(ctx, c, lo, out)
	s.end(len(out))
	return err
}

// tracedTier is the federation→tier seam; the k = 6 tier's spans are
// the router's.
type tracedTier struct {
	tables.Backend
	t             *tracer
	lookup, level int
}

func (b tracedTier) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	ctx, s := b.t.start(ctx, b.lookup)
	err := b.Backend.LookupBatch(ctx, keys, vals, found)
	s.end(len(keys))
	return err
}

func (b tracedTier) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	ctx, s := b.t.start(ctx, b.level)
	err := b.Backend.LevelKeys(ctx, c, lo, out)
	s.end(len(out))
	return err
}

// tracedClient is the router→shard-client seam. Embedding keeps the
// owned range, drain state and address the router reads.
type tracedClient struct {
	*tablenet.Client
	t *tracer
}

func (c tracedClient) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	ctx, s := c.t.start(ctx, spClientLookup)
	err := c.Client.LookupBatch(ctx, keys, vals, found)
	s.end(len(keys))
	return err
}

func (c tracedClient) LevelKeys(ctx context.Context, lvl, lo int, out []uint64) error {
	ctx, s := c.t.start(ctx, spClientLevel)
	err := c.Client.LevelKeys(ctx, lvl, lo, out)
	s.end(len(out))
	return err
}

func (c tracedClient) LevelKeysSparse(ctx context.Context, lvl, lo, n int, filterLo, filterHi uint64, pos []uint32, keys []uint64) (int, error) {
	ctx, s := c.t.start(ctx, spClientLevel)
	got, err := c.Client.LevelKeysSparse(ctx, lvl, lo, n, filterLo, filterHi, pos, keys)
	s.end(n)
	return got, err
}
