package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/gate"
)

// testConfig shrinks a run to seconds: k = 5 tables, a twentieth of the
// inputs, half-second phases. Windows of at most 10 gates lie within the
// k = 5 horizon of 10.
func testConfig(t *testing.T, binDir string, trace bool) *config {
	return &config{
		seed: 1, seconds: 0.5, trace: trace,
		dir: t.TempDir(), binDir: binDir,
		k: 5, scale: 0.05, clients: runtime.NumCPU(), minSamples: 10, start: time.Now(),
	}
}

// lastLine runs report and decodes its final line.
func lastLine(t *testing.T, name string, cfg *config, out *outcome) map[string]json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := report(&buf, name, cfg, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %s", got)
	}
	return res
}

func metricNames(t *testing.T, res map[string]json.RawMessage) map[string]metric {
	t.Helper()
	var m map[string]metric
	if err := json.Unmarshal(res["metrics"], &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWorkloads drives every workload twice at toy size: a timed run in
// which one answer is corrupted, which must count exactly that request
// as failed, and a clean traced run, which must report every per-layer
// metric.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tables and revserve")
	}
	binDir := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(binDir, "revserve"), "./cmd/revserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building revserve: %v\n%s", err, out)
	}
	for _, name := range []string{"peephole", "fleet-scan"} {
		t.Run(name+"/wrong-answer", func(t *testing.T) {
			cfg := testConfig(t, binDir, false)
			var tampered atomic.Bool
			cfg.tamper = func(c circuit.Circuit) circuit.Circuit {
				if tampered.CompareAndSwap(false, true) {
					return append(c.Clone(), gate.FromIndex(0))
				}
				return c
			}
			out, err := workloads[name](context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 1 || out.attempted < 2 {
				t.Fatalf("attempted %d, failed %d; want exactly the tampered answer failed", out.attempted, out.failed)
			}
			res := lastLine(t, name, cfg, out)
			if string(res["correct"]) != "false" {
				t.Fatalf("correct = %s with a wrong answer", res["correct"])
			}
			m := metricNames(t, res)
			for _, e := range endToEnd {
				if got, ok := m[e.name]; !ok || got.Unit != e.unit || got.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v (present %v)", e.name, got, ok)
				}
			}
			if len(m) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(m), len(endToEnd))
			}
		})
		t.Run(name+"/traced", func(t *testing.T) {
			cfg := testConfig(t, binDir, true)
			out, err := workloads[name](context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 {
				t.Fatalf("%d of %d failed: %v", out.failed, out.attempted, out.info["first_error"])
			}
			res := lastLine(t, name, cfg, out)
			if string(res["correct"]) != "true" {
				t.Fatalf("correct = %s", res["correct"])
			}
			m := metricNames(t, res)
			for _, p := range perLayer {
				if got, ok := m[p.name]; !ok || got.Unit != p.unit {
					t.Errorf("per-layer metric %s = %+v (present %v)", p.name, got, ok)
				}
			}
			if len(m) != len(perLayer) {
				t.Errorf("%d metrics, want %d", len(m), len(perLayer))
			}
			if _, err := os.Stat(out.info["trace_file"].(string)); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, declared []struct{ Name, Unit string }, reported []struct{ name, unit string }) {
		if len(declared) != len(reported) {
			t.Errorf("%s: %d declared, %d reported", kind, len(declared), len(reported))
			return
		}
		for i, d := range declared {
			if d.Name != reported[i].name || d.Unit != reported[i].unit {
				t.Errorf("%s %d: declared %s (%s), reported %s (%s)", kind, i, d.Name, d.Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
