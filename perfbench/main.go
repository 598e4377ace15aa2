// Command perfbench is pushpull's benchmark. It drives the system from
// outside, through its public constructors and calls (pushpull.Run,
// pushpull.NewEngine, serve.New, cluster.New, jobs.NewManager), in one
// process over loopback HTTP, and checks every operation's output.
//
// Run one workload:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// Run every workload, each in its own process:
//
//	bash perfbench/run.sh --workload all
//
// --trace 1 runs the workload's traced variant, which reports the
// per-layer metrics instead of the end-to-end ones and writes its spans
// under .bench_build/traces/. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// traceDir is where a traced run writes its spans, relative to the root
// of the checkout the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "traces")

// instance is one set-up workload, ready to drive.
type instance interface {
	// run drives the closed loop until deadline. tr is nil on an
	// untraced run; a traced run also fills tally.layers.
	run(deadline time.Time, tr *tracer) *tally
	close()
}

type workload struct {
	name  string
	setup func(seed uint64) (instance, error)
}

// workloads are the benchmark's workloads; BENCHMARK.json and README.md
// say why each was chosen.
var workloads = []workload{
	{"solve", setupSolve},
	{"serve-hot", setupServeHot},
	{"serve-churn", setupServeChurn},
	{"routed-jobs", setupRoutedJobs},
}

// tally is what one timed loop measured.
type tally struct {
	ops       int       // completed closed-loop operations
	attempted int       // checked calls (requests or library runs)
	failed    int       // calls that errored, were refused or failed a check
	wrong     int       // calls whose output failed its check
	lat       []float64 // per-operation latency, ms
	firstErr  error
	extra     []series // further end-to-end series this workload reports
	layers    []metric // per-layer metrics (traced runs only)
}

// series is a named set of samples summarized by its median.
type series struct {
	name, unit string
	xs         []float64
}

func (t *tally) fail(err error, wrong bool) {
	t.failed++
	if wrong {
		t.wrong++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// merge folds another client's tally into t.
func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.lat = append(t.lat, o.lat...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: solve, serve-hot, serve-churn, routed-jobs, or all")
	seed := flag.Uint64("seed", 1, "workload seed: every input is derived from it")
	seconds := flag.Int("seconds", 10, "length of the timed loop")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	report := flag.String("report", "", "write a steadiness report of --runs runs per workload (bounds from BENCHMARK.json) to this file")
	runs := flag.Int("runs", 10, "runs per workload for --report")
	flag.Parse()

	var err error
	switch {
	case *report != "":
		err = steadiness(*report, *runs, *seconds)
	case *name == "all":
		err = runAll(*seed, *seconds, *trace)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// runOne sets a workload up setupReps times, drives the last set-up for
// the timed loop, and prints its metrics.
func runOne(name string, seed uint64, seconds int, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", seconds)
	}
	var inst instance
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		inst, err = w.setup(seed)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	dur := time.Duration(seconds) * time.Second

	if traced {
		return runTraced(w, inst, seed, dur)
	}

	rt0 := sampleRuntime()
	t := inst.run(time.Now().Add(dur), nil)
	rt1 := sampleRuntime()
	wall := rt1.at.Sub(rt0.at).Seconds()
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	p50 := median(t.lat)
	p90, err := percentile(t.lat, 90)
	if err != nil {
		// Still a measurement, but a thin one: a run on a machine slowed
		// far below the one the workload was sized on lands here.
		fmt.Fprintf(os.Stderr, "warning: %s lat_p90_ms: %v\n", name, err)
	}
	m := []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"ops_per_s", float64(t.ops) / wall, "1/s", t.ops},
		{"lat_p50_ms", p50, "ms", len(t.lat)},
		{"lat_p90_ms", p90, "ms", len(t.lat)},
		{"ok_frac", okFrac(t), "frac", t.attempted},
		{"peak_rss_mb", rss, "MB", 1},
	}
	for _, s := range t.extra {
		m = append(m, metric{s.name, median(s.xs), s.unit, len(s.xs)})
	}
	fmt.Printf("workload %s  seed %d  %ds timed\n", name, seed, seconds)
	printMetrics(m)
	return emit(t, m, endToEnd)
}

// runTraced runs the loop untraced for the first quarter of dur, traced
// for the middle half, and untraced again for the last quarter. The
// untraced windows on both sides are the overhead baseline, so a steady
// drift of the machine's speed cancels out of the comparison.
func runTraced(w workload, inst instance, seed uint64, dur time.Duration) error {
	untraced := func() (*tally, float64) {
		t0 := time.Now()
		t := inst.run(t0.Add(dur/4), nil)
		return t, time.Since(t0).Seconds()
	}
	before, s0 := untraced()
	tr := newTracer()
	rt0 := sampleRuntime()
	t := inst.run(rt0.at.Add(dur/2), tr)
	rt1 := sampleRuntime()
	after, s1 := untraced()
	baseRate := float64(before.ops+after.ops) / (s0 + s1)
	rate := float64(t.ops) / rt1.at.Sub(rt0.at).Seconds()

	spans := tr.snapshot()
	overhead := 0.0
	if baseRate > 0 {
		overhead = 1 - rate/baseRate
	}
	m := append(t.layers, runtimeMetrics(rt0, rt1, t.ops)...)
	m = append(m,
		metric{"trace.overhead_frac", overhead, "frac", t.ops},
		metric{"trace.spans", float64(len(spans)), "count", 1})
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("workload %s  seed %d  traced (%d spans in %s)  untraced %.2f ops/s, traced %.2f ops/s\n",
		w.name, seed, len(spans), path, baseRate, rate)
	printMetrics(m)
	t.merge(before)
	t.merge(after)
	return emit(t, m, perLayer())
}

func okFrac(t *tally) float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("  %-26s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
}

// emit prints the result line: exactly the metrics named in want, with
// 0 for a metric the workload has no sample of.
func emit(t *tally, ms []metric, want []metricDef) error {
	have := map[string]float64{}
	for _, m := range ms {
		have[m.Name] = m.Value
	}
	out := result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, w := range want {
		out.Metrics[w.name] = metricValue{Value: have[w.name], Unit: w.unit}
	}
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "first failure:", t.firstErr)
	}
	if t.attempted == 0 {
		return fmt.Errorf("no operation completed")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runAll runs every workload in a child process of its own, so peak RSS
// and GC state start fresh, and passes their output through.
func runAll(seed uint64, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
	}
	return nil
}
