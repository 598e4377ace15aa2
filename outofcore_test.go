package pushpull_test

// Out-of-core facade tests: the block-sequential kernels must reproduce
// the in-memory results exactly (blocked pull is the same arithmetic in
// a different traversal order for bfs; PageRank accumulates per vertex
// in the same neighbor order, so ranks agree to float tolerance), the
// capability gate must reject combinations the block kernels cannot
// honor, and content identity must survive the in-memory → file swap.

import (
	"context"
	"errors"
	"testing"

	"pushpull"
	"pushpull/internal/algo/pr"
)

// oocVariants enumerates the facade spellings of an out-of-core run over
// an in-memory graph: the explicit option, the workload declaration, and
// the declaration pinned to the buffered (bounded-RSS) reader.
func oocVariants(g *pushpull.Graph, directed bool) map[string]struct {
	on   pushpull.Runnable
	opts []pushpull.Option
} {
	wrap := func(opts ...pushpull.WorkloadOption) *pushpull.Workload {
		if directed {
			return pushpull.Directed(g, opts...)
		}
		return pushpull.NewWorkload(g, opts...)
	}
	return map[string]struct {
		on   pushpull.Runnable
		opts []pushpull.Option
	}{
		"explicit":          {wrap(), []pushpull.Option{pushpull.WithOutOfCore()}},
		"declared":          {wrap(pushpull.AsOutOfCore()), nil},
		"declared-buffered": {wrap(pushpull.AsOutOfCore(), pushpull.AsBlockBuffered()), nil},
	}
}

func TestOutOfCorePRCrossValidate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		g        *pushpull.Graph
		directed bool
	}{
		{"undirected", skewedGraph(t), false},
		{"directed", directedSkewedGraph(t, 600, 29), true},
	} {
		var base pushpull.Runnable = pushpull.NewWorkload(tc.g)
		if tc.directed {
			base = pushpull.Directed(tc.g)
		}
		want := run(t, base, "pr", pushpull.WithDirection(pushpull.Pull)).Result.([]float64)
		for name, v := range oocVariants(tc.g, tc.directed) {
			got := run(t, v.on, "pr", append(v.opts, pushpull.WithThreads(4))...).Result.([]float64)
			if d := pr.MaxDiff(got, want); d > 1e-9 {
				t.Errorf("%s/%s: blocked pr diverges from plain pull: max diff %g", tc.name, name, d)
			}
		}
	}
}

func TestOutOfCoreBFSCrossValidate(t *testing.T) {
	g := skewedGraph(t)
	want := run(t, pushpull.NewWorkload(g), "bfs",
		pushpull.WithSource(0), pushpull.WithDirection(pushpull.Pull)).Result.(*pushpull.BFSTree).Level
	for name, v := range oocVariants(g, false) {
		rep := run(t, v.on, "bfs", append(v.opts, pushpull.WithSource(0), pushpull.WithThreads(4))...)
		tree := rep.Result.(*pushpull.BFSTree)
		checkBFSTree(t, g, 0, tree, want)
		if name == "explicit" {
			continue
		}
		// Declared workloads must report the out-of-core kind.
		if w, ok := v.on.(*pushpull.Workload); ok && !w.IsOutOfCore() {
			t.Errorf("%s: workload does not report out-of-core", name)
		}
	}
}

func TestOutOfCoreCapsErrors(t *testing.T) {
	g := skewedGraph(t)
	ctx := context.Background()
	// No block kernel: the explicit option fails loudly.
	if _, err := pushpull.Run(ctx, g, "tc", pushpull.WithOutOfCore()); !errors.Is(err, pushpull.ErrOutOfCoreUnsupported) {
		t.Fatalf("tc WithOutOfCore: %v, want ErrOutOfCoreUnsupported", err)
	}
	// Block kernels are pull-only over the plain layout.
	for name, opts := range map[string][]pushpull.Option{
		"push":        {pushpull.WithOutOfCore(), pushpull.WithDirection(pushpull.Push)},
		"degree-sort": {pushpull.WithOutOfCore(), pushpull.WithDegreeSorted()},
	} {
		if _, err := pushpull.Run(ctx, g, "pr", opts...); !errors.Is(err, pushpull.ErrBadOption) {
			t.Fatalf("pr out-of-core with %s: %v, want ErrBadOption", name, err)
		}
	}
	// An ambient in-memory declaration is ignored by algorithms without
	// block kernels — they run on the in-memory graph as before.
	w := pushpull.NewWorkload(g, pushpull.AsOutOfCore())
	if _, err := pushpull.Run(ctx, w, "tc"); err != nil {
		t.Fatalf("tc on declared ooc workload: %v", err)
	}
}

func TestOutOfCoreOptionInCacheKeyAndID(t *testing.T) {
	g := undirectedGraph(t, 400, 5)
	// The workload declaration is part of the content ID; the explicit
	// option is part of the engine cache key.
	if pushpull.NewWorkload(g).ID() == pushpull.NewWorkload(g, pushpull.AsOutOfCore()).ID() {
		t.Fatal("AsOutOfCore absent from the content ID")
	}
	e := pushpull.NewEngine()
	w := pushpull.NewWorkload(g)
	runE := func(opts ...pushpull.Option) *pushpull.Report {
		t.Helper()
		rep, err := e.Run(context.Background(), w, "pr", opts...)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := runE(pushpull.WithOutOfCore()); rep.Stats.CacheHit {
		t.Fatal("first out-of-core run cannot be a cache hit")
	}
	if rep := runE(pushpull.WithOutOfCore()); !rep.Stats.CacheHit {
		t.Fatal("identical out-of-core run must hit the cache")
	}
	if rep := runE(); rep.Stats.CacheHit {
		t.Fatal("plain run must not share the out-of-core key")
	}
}
