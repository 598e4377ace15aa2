package main

import (
	"testing"
	"time"
)

// Every workload sets up, runs a short traced and untraced loop with
// both clients at once, checks every answer, and shuts down cleanly.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(1)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			for _, tr := range []*tracer{nil, newTracer()} {
				res := inst.run(time.Now().Add(300*time.Millisecond), tr)
				if res.attempted == 0 || res.failed > 0 {
					t.Fatalf("traced=%v: %d of %d failed (first: %v)", tr != nil, res.failed, res.attempted, res.firstErr)
				}
				if tr != nil && (len(res.layers) == 0 || len(tr.snapshot()) == 0) {
					t.Fatalf("the traced loop recorded %d spans and %d layer metrics", len(tr.snapshot()), len(res.layers))
				}
			}
		})
	}
}
