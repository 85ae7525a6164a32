package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
)

// window is the stretch over which the closed loop also counts
// throughput, for info: the windows show drift within a phase. The
// phase's own throughput is its mean, since in fleet-scan one window
// holds only about a dozen of the cost-10 specs that take half the
// time, and the median window spread more from run to run.
const window = time.Second

// closedLoop drives a workload: each of clients goroutines sends its
// next request only after the previous one is answered, for d, until
// next reports the inputs exhausted, or until ctx ends. Requests are
// timed one by one, except that only every stride-th request of a
// client is timed when a clock read would be a large share of the
// request itself.
type closedLoop struct {
	clients int
	d       time.Duration
	stride  int
	// next returns client c's next input index, false when exhausted.
	next func(c int) (int, bool)
	// do sends request i and returns the answer; check, run outside
	// the timed region, accepts or rejects it. Either error makes the
	// request a failed one (error, refusal or wrong answer).
	do    func(ctx context.Context, c, i int) (circuit.Circuit, error)
	check func(i int, c circuit.Circuit) error
	// tamper, when set, alters every answer before the check; the
	// self-test uses it to inject wrong answers.
	tamper func(circuit.Circuit) circuit.Circuit
}

// loopResult is one closed-loop phase.
type loopResult struct {
	done, failed int64
	elapsed      time.Duration
	windowQPS    []float64       // throughput of each whole window
	lat          []time.Duration // sampled request latencies, sorted
	firstErr     error
}

// paddedCount keeps each client's counter on its own cache line.
type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

func (l closedLoop) run(ctx context.Context) loopResult {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		res      loopResult
		stop     atomic.Bool
		firstErr error
	)
	lats := make([][]time.Duration, l.clients)
	counts := make([]paddedCount, l.clients)
	// Set-up garbage is collected before the phase, not inside it.
	runtime.GC()
	start := time.Now()
	deadline := start.Add(l.d)

	// The monitor closes windows and stops the clients when ctx ends.
	monitorDone := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(monitorDone)
		tick := time.NewTicker(window)
		defer tick.Stop()
		var last int64
		lastAt := start
		for {
			select {
			case <-ctx.Done():
				stop.Store(true)
				return
			case <-finished:
				return
			case now := <-tick.C:
				var total int64
				for i := range counts {
					total += counts[i].n.Load()
				}
				res.windowQPS = append(res.windowQPS, float64(total-last)/now.Sub(lastAt).Seconds())
				last, lastAt = total, now
			}
		}
	}()

	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var failed int64
			lat := make([]time.Duration, 0, 1<<16)
			for n := 0; !stop.Load(); n++ {
				i, ok := l.next(c)
				if !ok {
					stop.Store(true)
					break
				}
				timed := n%l.stride == 0
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				circ, err := l.do(ctx, c, i)
				if timed {
					t1 := time.Now()
					lat = append(lat, t1.Sub(t0))
					if t1.After(deadline) {
						stop.Store(true)
					}
				}
				counts[c].n.Add(1)
				if err == nil {
					if l.tamper != nil {
						circ = l.tamper(circ)
					}
					err = l.check(i, circ)
				}
				if err != nil {
					failed++
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			res.done += counts[c].n.Load()
			res.failed += failed
			lats[c] = lat
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(finished)
	<-monitorDone
	res.elapsed = time.Since(start)
	res.firstErr = firstErr
	if res.firstErr == nil && ctx.Err() != nil {
		res.firstErr = ctx.Err()
	}
	for _, l := range lats {
		res.lat = append(res.lat, l...)
	}
	sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
	return res
}

// add merges another phase into r; the merged latencies are unsorted.
func (r *loopResult) add(o loopResult) {
	r.done += o.done
	r.failed += o.failed
	r.elapsed += o.elapsed
	r.lat = append(r.lat, o.lat...)
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

func (r loopResult) meanQPS() float64 { return float64(r.done) / r.elapsed.Seconds() }

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// count adds a phase's requests to the run's totals.
func (o *outcome) count(r loopResult) {
	o.attempted += r.done
	o.failed += r.failed
	if r.firstErr != nil {
		o.info["first_error"] = r.firstErr.Error()
	}
}

// setEndToEnd records a timed phase's end-to-end metrics. p99 needs at
// least ten samples beyond it, so too few samples is an error.
func setEndToEnd(out *outcome, cfg *config, r loopResult) error {
	out.count(r)
	out.info["samples"] = len(r.lat)
	out.info["measured_s"] = r.elapsed.Seconds()
	out.info["window_qps"] = r.windowQPS
	if len(r.lat) < cfg.minSamples {
		return fmt.Errorf("only %d latency samples; p99 needs %d", len(r.lat), cfg.minSamples)
	}
	out.set("throughput_qps", r.meanQPS(), "1/s")
	out.set("latency_p50_us", us(quantile(r.lat, 0.50)), "us")
	out.set("latency_p99_us", us(quantile(r.lat, 0.99)), "us")
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cursor hands each client its own walk through a shared input stream:
// client c starts at offset c·len/clients and wraps around.
type cursor struct {
	pos []int
	n   int
}

func newCursor(clients, n int) *cursor {
	c := &cursor{pos: make([]int, clients), n: n}
	for i := range c.pos {
		c.pos[i] = i * n / clients
	}
	return c
}

func (c *cursor) next(client int) (int, bool) {
	i := c.pos[client]
	c.pos[client] = (i + 1) % c.n
	return i, true
}

// dealer hands out each input index once, across all clients.
type dealer struct {
	i atomic.Int64
	n int64
}

func (d *dealer) next(int) (int, bool) {
	i := d.i.Add(1) - 1
	return int(i), i < d.n
}
