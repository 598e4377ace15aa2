package pushpull

// Distributed-memory registry algorithms: the §6.3 simulated-cluster
// variants (push-RMA, pull-RMA, message passing) exposed through the same
// Run facade as the shared-memory algorithms, under the naming scheme
// dist-<algo>-<mechanism>:
//
//	dist-pr-push-rma   dist-pr-pull-rma   dist-pr-mp
//	dist-tc-push-rma   dist-tc-pull-rma   dist-tc-mp
//
// A dist run executes on a simulated cluster of WithRanks(P) rank
// goroutines (default: WithThreads, else DefaultDistRanks) and returns a
// uniform Report: Result is the *DistResult (gathered values, simulated
// makespan, remote-op counters), Stats.Elapsed is the simulated makespan —
// not wall time — and Counters always carries the aggregated remote
// operations, with or without WithProbes. The runs are BSP supersteps with
// no per-iteration wall clock, so WithIterationHook is not invoked, and
// like instrumented shared-memory passes they always run to completion
// (ctx is not polled).

import (
	"context"
	"fmt"
	"math"
	"time"

	"pushpull/internal/core"
	"pushpull/internal/dm/dalgo"
)

// DistResult carries gathered values, simulated makespan (ns) and
// aggregated remote-operation counters.
type DistResult = dalgo.Result

// DefaultDistRanks is the simulated cluster size used when neither
// WithRanks nor WithThreads is given — fixed rather than GOMAXPROCS so a
// simulated makespan is reproducible across machines.
const DefaultDistRanks = 8

func init() {
	// Every dist variant records its remote-operation counters whether or
	// not probes are requested, so Caps.Probes holds; the simulations run
	// the paper's undirected workloads only.
	distCaps := Caps{Probes: true}
	for _, b := range []*builtin{
		{"dist-pr-push-rma", "distributed PageRank, pushing over RMA (remote float accumulates, §6.3.1)",
			distCaps, distPR("dist-pr-push-rma", dalgo.PRPushRMA, Push)},
		{"dist-pr-pull-rma", "distributed PageRank, pulling over RMA (remote reads of rank and degree, §6.3.1)",
			distCaps, distPR("dist-pr-pull-rma", dalgo.PRPullRMA, Pull)},
		{"dist-pr-mp", "distributed PageRank, buffered message passing (Alltoallv hybrid, §6.3.1)",
			distCaps, distPR("dist-pr-mp", dalgo.PRMsgPassing, Auto)},
		{"dist-tc-push-rma", "distributed triangle counting, pushing over RMA (remote integer FAAs, §6.3.2)",
			distCaps, distTC("dist-tc-push-rma", dalgo.TCPushRMA, Push)},
		{"dist-tc-pull-rma", "distributed triangle counting, pulling over RMA (owner-local accumulation, §6.3.2)",
			distCaps, distTC("dist-tc-pull-rma", dalgo.TCPullRMA, Pull)},
		{"dist-tc-mp", "distributed triangle counting, buffered instruct messages (§6.3.2)",
			distCaps, distTC("dist-tc-mp", dalgo.TCMsgPassing, Auto)},
	} {
		MustRegister(b)
	}
}

// distRanks resolves the simulated cluster size of a dist run.
func (c *Config) distRanks() int {
	if c.Ranks > 0 {
		return c.Ranks
	}
	if c.Threads > 0 {
		return c.Threads
	}
	return DefaultDistRanks
}

// checkDistDirection rejects a pinned direction contradicting the variant:
// the mechanism (and with it the direction) is part of a dist algorithm's
// name, so there is nothing for WithDirection to choose. fixed == Auto
// marks the message-passing hybrid, which both pushes its update vectors
// and pulls the incoming ones and therefore accepts no pin at all.
func checkDistDirection(name string, fixed, requested Direction) error {
	if requested == Auto || requested == fixed {
		return nil
	}
	if fixed == Auto {
		return fmt.Errorf("pushpull: %s is a push+pull hybrid; drop WithDirection(%v)", name, requested)
	}
	return fmt.Errorf("pushpull: %s runs %v by construction; drop WithDirection(%v)", name, fixed, requested)
}

// distTraceDir maps the variant's fixed direction to the trace entry; the
// mp hybrid is recorded as pushing (its update vectors travel outward; the
// pull of incoming vectors is the collective's receive side).
func distTraceDir(fixed Direction) core.Direction {
	if fixed == Pull {
		return core.Pull
	}
	return core.Push
}

// distPR adapts one dalgo PageRank variant to the Algorithm interface.
func distPR(name string, run func(*Graph, dalgo.PRConfig) (*dalgo.Result, error), fixed Direction) func(context.Context, *Workload, *Config) (*Report, error) {
	return func(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
		g := w.Graph()
		if err := checkDistDirection(name, fixed, cfg.Direction); err != nil {
			return nil, err
		}
		dcfg := dalgo.PRConfig{Ranks: cfg.distRanks(), Iterations: cfg.Iterations}
		if cfg.DampingSet {
			if cfg.Damping == 0 {
				return nil, fmt.Errorf("pushpull: the distributed simulation cannot express zero damping (its config treats 0 as the default)")
			}
			dcfg.Damping = cfg.Damping
		}
		res, err := run(g, dcfg)
		if err != nil {
			return nil, err
		}
		iters := cfg.Iterations
		if iters <= 0 {
			iters = dalgo.DefaultPRIterations
		}
		dir := distTraceDir(fixed)
		rep := res.Report
		return &Report{Result: res,
			Stats:      RunStats{Direction: dir, Iterations: iters, Elapsed: simElapsed(res.SimTime)},
			Directions: uniformTrace(dir, iters), Counters: &rep}, nil
	}
}

// distTC adapts one dalgo triangle-counting variant.
func distTC(name string, run func(*Graph, dalgo.TCConfig) (*dalgo.Result, error), fixed Direction) func(context.Context, *Workload, *Config) (*Report, error) {
	return func(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
		g := w.Graph()
		if err := checkDistDirection(name, fixed, cfg.Direction); err != nil {
			return nil, err
		}
		res, err := run(g, dalgo.TCConfig{Ranks: cfg.distRanks()})
		if err != nil {
			return nil, err
		}
		dir := distTraceDir(fixed)
		rep := res.Report
		return &Report{Result: res,
			Stats:      RunStats{Direction: dir, Iterations: 1, Elapsed: simElapsed(res.SimTime)},
			Directions: uniformTrace(dir, 1), Counters: &rep}, nil
	}
}

// simElapsed lifts a simulated makespan (float ns) into Stats.Elapsed,
// rounding rather than truncating so fractional cost-model terms cannot
// make the Report drift from DistResult.SimTime by up to a nanosecond.
func simElapsed(ns float64) time.Duration { return time.Duration(math.Round(ns)) }
