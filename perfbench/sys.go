package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// endToEnd lists every end-to-end metric with its unit; a timed run
// reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer that does not run on the workload
// reports 0.
var perLayer = []struct{ name, unit string }{
	{"bfs.build_s", "s"},
	{"extbuild.build_s", "s"},
	{"extbuild.spill_written_mb", "MB"},
	{"extbuild.peak_tracked_mb", "MB"},
	{"tablesio.save_s", "s"},
	{"tablesio.load_ms", "ms"},
	{"canon.ns_per_call", "ns"},
	{"hashtab.probe_ns", "ns"},
	{"core.candidates_per_query", "count"},
	{"core.direct_share", "share"},
	{"core.self_us", "us"},
	{"service.cache_hit_share", "share"},
	{"service.hit_ns", "ns"},
	{"service.self_ns", "ns"},
	{"tablenet.lookup_calls_per_query", "count"},
	{"tablenet.keys_per_lookup", "count"},
	{"tablenet.lookup_us", "us"},
	{"tablenet.level_calls_per_query", "count"},
	{"tablenet.level_us", "us"},
	{"tablenet.key_cache_hit_share", "share"},
	{"tablenet.level_cache_hit_share", "share"},
	{"tablenet.coalesced", "count"},
	{"tablenet.wire_kb_per_query", "KB"},
	{"tablenet.retries", "count"},
	{"router.lookup_us", "us"},
	{"router.self_us", "us"},
	{"federation.escalation_share", "share"},
	{"federation.self_us", "us"},
	{"http.overhead_us", "us"},
	{"ops.rejected", "count"},
	{"trace.overhead_share", "share"},
}

// finishTrace completes a traced run: it fills in the layers the
// workload does not run, then writes the counts and spans to a trace
// file beside the build outputs.
func finishTrace(cfg *config, name string, t *tracer, out *outcome) error {
	counts := map[string]any{}
	for _, m := range perLayer {
		if _, ok := out.metrics[m.name]; !ok {
			out.set(m.name, 0, m.unit)
		}
		counts[m.name] = out.metrics[m.name].Value
	}
	for i := 0; i < numSpanNames; i++ {
		s := t.stat(i)
		counts["span."+spanNames[i]] = map[string]any{
			"calls": s.calls, "keys": s.keys, "mean_us": s.meanUS, "self_us": s.selfUS,
		}
	}
	path := filepath.Join(cfg.binDir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, cfg.seed))
	out.info["trace_file"] = path
	return t.write(path, counts)
}
