package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"pushpull"
)

// metric is one named number with its unit and the number of samples
// behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// metricDef names a metric the result line must carry, with its unit.
type metricDef struct{ name, unit string }

// endToEnd names the gated metrics every workload reports from an
// untraced run, in print order; BENCHMARK.json lists the same set.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MB"},
}

// algos is the solve workload's algorithm set, in report order.
var algos = []string{"pr", "bfs", "sssp", "gc", "mst", "bc", "tc"}

// perLayer lists every per-layer metric a traced run reports, in print
// order. A layer a workload does not cross reports 0.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit string) { out = append(out, metricDef{name, unit}) }
	for _, a := range algos {
		add("kernel."+a+".push_ms", "ms")
		add("kernel."+a+".pull_ms", "ms")
		add("kernel."+a+".iters", "count")
	}
	add("facade.self_ms", "ms")
	add("facade.view_builds", "count")
	add("engine.queue_wait_ms", "ms")
	add("engine.kernel_ms", "ms")
	add("engine.cache_hit_frac", "frac")
	add("engine.coalesced_frac", "frac")
	add("engine.rejected", "count")
	add("serve.handler_ms", "ms")
	add("serve.self_ms", "ms")
	add("serve.encode_ms", "ms")
	add("serve.resp_kb", "KB")
	add("serve.put_ms", "ms")
	add("serve.errors", "count")
	add("net.self_ms", "ms")
	add("cluster.hop_ms", "ms")
	add("cluster.retried", "count")
	add("jobs.queue_ms", "ms")
	add("jobs.polls_per_job", "count")
	add("jobs.retained", "count")
	add("runtime.gc_cpu_frac", "frac")
	add("runtime.alloc_mb_per_op", "MB")
	add("trace.overhead_frac", "frac")
	add("trace.spans", "count")
	return out
}

// peakRSSMB reads the process's high-water resident set (VmHWM) once.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeSample is a snapshot of the process-wide Go runtime counters.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	at              time.Time
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		at:         time.Now(),
	}
}

// runtimeMetrics derives the runtime layer's metrics between two samples.
func runtimeMetrics(a, b runtimeSample, ops int) []metric {
	gcFrac := 0.0
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	perOp := 0.0
	if ops > 0 {
		perOp = float64(b.allocBytes-a.allocBytes) / float64(ops) / (1 << 20)
	}
	return []metric{
		{Name: "runtime.gc_cpu_frac", Value: gcFrac, Unit: "frac", N: 1},
		{Name: "runtime.alloc_mb_per_op", Value: perOp, Unit: "MB", N: ops},
	}
}

// engineFracs derives the engine's cache and admission metrics from two
// snapshots of its counters.
func engineFracs(a, b pushpull.EngineStats) []metric {
	hits := float64(b.CacheHits - a.CacheHits)
	coal := float64(b.Coalesced - a.Coalesced)
	total := hits + coal + float64(b.CacheMisses-a.CacheMisses) + float64(b.Uncacheable-a.Uncacheable)
	frac := func(x float64) float64 {
		if total == 0 {
			return 0
		}
		return x / total
	}
	return []metric{
		{"engine.cache_hit_frac", frac(hits), "frac", int(total)},
		{"engine.coalesced_frac", frac(coal), "frac", int(total)},
		{"engine.rejected", float64(b.Rejected - a.Rejected), "count", int(total)},
	}
}
