package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs every workload of BENCHMARK.json `runs` times, each
// with another seed and in a process of its own, and writes a Markdown
// report: per metric and workload the median, the interquartile range as
// a share of the median, max/min, and how that spread compares with the
// bound.
func steadiness(out string, runs, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Steadiness report\n\n%d runs per workload, seeds 1..%d, %d s each, one process per run, %s.\n",
		runs, runs, seconds, time.Now().UTC().Format("2006-01-02"))
	fmt.Fprintf(&b, "Machine: %s, %d CPUs, %s.\n", cpuModel(), runtime.NumCPU(), runtime.Version())
	b.WriteString("Spread is (Q3 − Q1) / median with the quartiles of Python's `statistics.quantiles(n=4)`.\n")
	b.WriteString("`ok` marks a spread below a third of the bound, `tight` one below the bound, `OVER` one above it.\n")
	b.WriteString("The bound on `setup_s` gates the median only, so its spread is marked but not held to it.\n")
	for _, w := range spec.Workloads {
		vals := map[string][]float64{}
		for seed := 1; seed <= runs; seed++ {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", "0")
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			res, err := lastResult(stdout.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, seed, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				vals[name] = append(vals[name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "steadiness: %s seed %d done\n", w.Name, seed)
		}
		fmt.Fprintf(&b, "\n## %s\n\n| metric | unit | median | spread | max/min | bound | mark | values |\n|---|---|---|---|---|---|---|---|\n", w.Name)
		for _, m := range spec.EndToEnd {
			xs := vals[m.Name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread, ratio := 0.0, 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			s := sortedCopy(xs)
			if len(s) > 0 && s[0] != 0 {
				ratio = s[len(s)-1] / s[0]
			}
			mark := "ok"
			switch {
			case spread > m.Bound:
				mark = "OVER"
			case spread > m.Bound/3:
				mark = "tight"
			}
			fmt.Fprintf(&b, "| %s | %s | %.4g | %.3f | %.3f | %.2f | %s | %s |\n",
				m.Name, m.Unit, med, spread, ratio, m.Bound, mark, joinVals(xs))
		}
	}
	return os.WriteFile(out, []byte(b.String()), 0o644)
}

// cpuModel names the processor from /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}

func lastResult(stdout []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

func joinVals(xs []float64) string {
	s := sortedCopy(xs)
	parts := make([]string, len(s))
	for i, x := range s {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
