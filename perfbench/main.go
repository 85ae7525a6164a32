// Command perfbench is the repository's benchmark: three closed-loop
// workloads over the paper's k = 6 tables (32-gate library, horizon 12,
// production defaults), each checked answer by answer against the
// optimal cost. See README.md for the workloads, the metrics and the
// layer each metric watches. Run it through run.sh, which builds it and
// revserve from the checkout first:
//
//	bash perfbench/run.sh --workload peephole --seed 1 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/circuit"
)

// benchK is the fixed table depth every workload serves.
const benchK = 6

// setupRounds is how many times a run brings its system up from
// nothing; setup_s is the median.
const setupRounds = 3

// config is one run's parameters. Everything but seed, seconds and
// trace is fixed for the benchmark; the self-test shrinks k and scale.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// dir is the run's scratch directory (table stores, work dirs,
	// trace output); binDir holds the built revserve binary.
	dir    string
	binDir string
	// k is the table depth (benchK outside the self-test) and scale
	// multiplies every input-set size.
	k     int
	scale float64
	// clients is the closed loop's client count: one per core.
	clients int
	// minSamples is the fewest latency samples a measured phase may
	// have: p99 needs ten beyond it. The self-test lowers it.
	minSamples int
	// tamper, when set, alters every answer before it is checked.
	tamper func(circuit.Circuit) circuit.Circuit
	start  time.Time
}

// logf notes a run's progress on standard error.
func (c *config) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.1fs: %s\n", time.Since(c.start).Seconds(), fmt.Sprintf(format, args...))
}

func (c *config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func (c *config) scaled(n int) int {
	return max(1, int(float64(n)*c.scale+0.5))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	info              map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, info: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{v, unit}
}

var workloads = map[string]func(context.Context, *config) (*outcome, error){
	"peephole":   runPeephole,
	"fleet-scan": runFleet,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: peephole or fleet-scan")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 12, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		binDir  = flag.String("bin", ".bench_build", "directory holding the built revserve binary")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*binDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := &config{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		dir: dir, binDir: *binDir,
		k: benchK, scale: 1, clients: runtime.NumCPU(), minSamples: 1000, start: time.Now(),
	}
	// An interrupted run stops its clients, closes what it started and
	// exits without a result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := run(ctx, cfg)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, *name, cfg, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// report prints the run's conditions as one "info" line, then the
// result object as the last line of standard output.
func report(w io.Writer, name string, cfg *config, out *outcome) error {
	out.info["workload"] = name
	out.info["seed"] = cfg.seed
	out.info["k"] = cfg.k
	out.info["host_cores"] = runtime.NumCPU()
	out.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.info["go_version"] = runtime.Version()
	out.info["clients"] = cfg.clients
	out.info["attempted"] = out.attempted
	out.info["succeeded"] = out.attempted - out.failed
	out.info["failed"] = out.failed
	if out.attempted > 0 {
		out.info["failed_share"] = float64(out.failed) / float64(out.attempted)
	}
	info, err := json.Marshal(out.info)
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "info: %s\n%s\n", info, res)
	return err
}

// timeSetups brings a system up setupRounds times, keeps the last one
// and closes the others. It returns the kept system and the median
// set-up time in seconds.
func timeSetups[S interface{ close() error }](rounds int, up func(round int) (S, error)) (S, float64, error) {
	var kept S
	var secs []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		s, err := up(r)
		if err != nil {
			return kept, 0, fmt.Errorf("set-up %d: %w", r, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if r < rounds-1 {
			if err := s.close(); err != nil {
				return kept, 0, fmt.Errorf("set-up %d: close: %w", r, err)
			}
			runtime.GC()
		} else {
			kept = s
		}
	}
	sort.Float64s(secs)
	return kept, secs[len(secs)/2], nil
}

// roundDir returns a fresh per-round directory under the run's scratch
// directory.
func roundDir(cfg *config, tag string, round int) (string, error) {
	d := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d", tag, round))
	return d, os.MkdirAll(d, 0o755)
}
