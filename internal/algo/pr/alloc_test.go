package pr

import (
	"testing"

	"pushpull/internal/core"
)

// seq pins kernels to one inline worker for allocation measurements.
func seq() core.Options { return core.Options{Threads: 1} }

// Steady-state zero-allocation proof: running more iterations must not
// allocate more. Each kernel's setup (rank arrays, the reserved
// per-iteration stats) is a fixed cost; the round loop itself — hoisted
// phase closures, pre-sized stats — must stay off the allocator. The
// kernels run at Threads 1 so ParallelFor executes inline and goroutine
// spawning does not drown the measurement.
func TestKernelSteadyStateAllocs(t *testing.T) {
	g := testGraph(t)
	dg := directedFixture(t, 600, 4000, 11)
	bg := openBlock(t, g, nil)
	kernels := map[string]func(iters int){
		"push":          func(iters int) { Push(g, Options{Options: seq(), Iterations: iters}) },
		"pull":          func(iters int) { Pull(g, Options{Options: seq(), Iterations: iters}) },
		"push-directed": func(iters int) { PushDirected(dg, Options{Options: seq(), Iterations: iters}) },
		"pull-directed": func(iters int) { PullDirected(dg, Options{Options: seq(), Iterations: iters}) },
		"pull-blocked":  func(iters int) { PullBlocked(bg, Options{Options: seq(), Iterations: iters}) },
	}
	for name, run := range kernels {
		short := testing.AllocsPerRun(3, func() { run(8) })
		long := testing.AllocsPerRun(3, func() { run(40) })
		if long != short {
			t.Errorf("%s: steady-state iterations allocate: %.0f allocs at 8 iters vs %.0f at 40", name, short, long)
		}
	}
}
