package pushpull_test

// Cross-validation of the kernel raw-speed layout option: degree-sorted
// runs must produce payloads identical to the plain kernels (pr ranks to 1e-9, bfs trees valid with equal levels, gc proper
// colorings), the options must participate in the Engine's cache key and
// the workload content ID, and the derived views must be memoized.

import (
	"context"
	"errors"
	"testing"

	"pushpull"
)

// skewedGraph builds a high-skew RMAT workload, where degree sorting
// moves the most rows.
func skewedGraph(t testing.TB) *pushpull.Graph {
	t.Helper()
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(10, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// directedSkewedGraph builds a directed pseudo-random graph.
func directedSkewedGraph(t testing.TB, n int, seed uint64) *pushpull.Graph {
	t.Helper()
	b := pushpull.NewBuilder(n).Directed()
	state := seed | 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 8*n; i++ {
		// Square one endpoint's range to skew the in-degree distribution.
		u := pushpull.V(next() % uint64(n))
		v := pushpull.V((next() % uint64(n)) * (next() % uint64(n)) / uint64(n))
		b.AddEdge(u, v)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func ranksOf(t *testing.T, rep *pushpull.Report) []float64 {
	t.Helper()
	ranks, ok := rep.Result.([]float64)
	if !ok {
		t.Fatalf("pr payload is %T, want []float64", rep.Result)
	}
	return ranks
}

func TestPRLayoutOptionsCrossValidate(t *testing.T) {
	g := skewedGraph(t)
	base, err := pushpull.Run(context.Background(), g, "pr", pushpull.WithDirection(pushpull.Pull))
	if err != nil {
		t.Fatal(err)
	}
	want := ranksOf(t, base)
	rep, err := pushpull.Run(context.Background(), pushpull.NewWorkload(g), "pr",
		pushpull.WithDegreeSorted(), pushpull.WithDirection(pushpull.Pull), pushpull.WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if d := pushpull.MaxDiff(want, ranksOf(t, rep)); d > 1e-9 {
		t.Fatalf("degree-sorted: ranks diverge from plain pull by %g", d)
	}
	// Workload-level declarations behave identically to per-run options.
	w := pushpull.NewWorkload(g, pushpull.AsDegreeSorted())
	rep, err = pushpull.Run(context.Background(), w, "pr", pushpull.WithDirection(pushpull.Pull))
	if err != nil {
		t.Fatal(err)
	}
	if d := pushpull.MaxDiff(want, ranksOf(t, rep)); d > 1e-9 {
		t.Fatalf("declared workload: ranks diverge by %g", d)
	}
	// Push runs honor the degree sort too.
	rep, err = pushpull.Run(context.Background(), w, "pr", pushpull.WithDirection(pushpull.Push))
	if err != nil {
		t.Fatal(err)
	}
	if d := pushpull.MaxDiff(want, ranksOf(t, rep)); d > 1e-6 {
		t.Fatalf("declared workload push: ranks diverge by %g", d)
	}
}

func TestPRDirectedLayoutOptionsCrossValidate(t *testing.T) {
	g := directedSkewedGraph(t, 700, 9)
	base, err := pushpull.Run(context.Background(), pushpull.Directed(g), "pr",
		pushpull.WithDirection(pushpull.Pull))
	if err != nil {
		t.Fatal(err)
	}
	want := ranksOf(t, base)
	rep, err := pushpull.Run(context.Background(), pushpull.Directed(g), "pr",
		pushpull.WithDegreeSorted(), pushpull.WithDirection(pushpull.Pull), pushpull.WithThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	if d := pushpull.MaxDiff(want, ranksOf(t, rep)); d > 1e-9 {
		t.Fatalf("degree-sorted: directed ranks diverge by %g", d)
	}
}

// checkBFSTree validates a tree against the graph and reference levels:
// same reachability and depth, every non-root parent a real neighbor one
// level up.
func checkBFSTree(t *testing.T, g *pushpull.Graph, root pushpull.V, tree *pushpull.BFSTree, want []int32) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if tree.Level[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, tree.Level[v], want[v])
		}
		p := tree.Parent[v]
		if pushpull.V(v) == root || p < 0 {
			continue
		}
		if tree.Level[v] != tree.Level[p]+1 {
			t.Fatalf("parent[%d]=%d: level %d vs parent level %d", v, p, tree.Level[v], tree.Level[p])
		}
		if !g.HasEdge(p, pushpull.V(v)) {
			t.Fatalf("parent[%d]=%d is not a neighbor", v, p)
		}
	}
}

func TestBFSLayoutOptionsCrossValidate(t *testing.T) {
	g := skewedGraph(t)
	base, err := pushpull.Run(context.Background(), g, "bfs", pushpull.WithSource(0))
	if err != nil {
		t.Fatal(err)
	}
	want := base.Result.(*pushpull.BFSTree).Level
	for _, dir := range []pushpull.Direction{pushpull.Auto, pushpull.Push, pushpull.Pull} {
		rep, err := pushpull.Run(context.Background(), pushpull.NewWorkload(g), "bfs",
			pushpull.WithDegreeSorted(), pushpull.WithSource(0), pushpull.WithDirection(dir), pushpull.WithThreads(4))
		if err != nil {
			t.Fatalf("degree-sorted %v: %v", dir, err)
		}
		checkBFSTree(t, g, 0, rep.Result.(*pushpull.BFSTree), want)
	}
}

func TestGCLayoutOptionsProperColoring(t *testing.T) {
	g := skewedGraph(t)
	// Explicit and declared degree sort, on the Boman push and pull paths
	// and on Frontier-Exploit with a Generic-Switch flip into pull.
	runs := []struct {
		name string
		on   pushpull.Runnable
		opts []pushpull.Option
	}{
		{"explicit-ds", pushpull.NewWorkload(g), []pushpull.Option{pushpull.WithDegreeSorted()}},
		{"declared", pushpull.NewWorkload(g, pushpull.AsDegreeSorted()), nil},
		{"declared-pull", pushpull.NewWorkload(g, pushpull.AsDegreeSorted()),
			[]pushpull.Option{pushpull.WithDirection(pushpull.Pull)}},
		{"sorted-fe", pushpull.NewWorkload(g),
			[]pushpull.Option{pushpull.WithDegreeSorted(), pushpull.WithSwitchPolicy(&pushpull.GenericSwitch{Threshold: 1})}},
	}
	for _, r := range runs {
		rep, err := pushpull.Run(context.Background(), r.on, "gc", r.opts...)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		res := rep.Result.(*pushpull.ColoringResult)
		if err := pushpull.ValidateColoring(g, res.Colors); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
}

func TestLayoutOptionCapsErrors(t *testing.T) {
	g := skewedGraph(t)
	wg := pushpull.WithUniformWeights(g, 1, 2, 7)
	if _, err := pushpull.Run(context.Background(), pushpull.Weighted(wg), "sssp",
		pushpull.WithDegreeSorted()); !errors.Is(err, pushpull.ErrDegreeSortUnsupported) {
		t.Fatalf("sssp WithDegreeSorted: %v, want ErrDegreeSortUnsupported", err)
	}
	if _, err := pushpull.Run(context.Background(), g, "pr",
		pushpull.WithDegreeSorted(), pushpull.WithPartitionAwareness()); !errors.Is(err, pushpull.ErrBadOption) {
		t.Fatalf("pr degree-sort + PA: %v, want ErrBadOption", err)
	}
	// gc-cr does not take the degree sort (gc and gc-fe do).
	if _, err := pushpull.Run(context.Background(), g, "gc-cr",
		pushpull.WithDegreeSorted()); !errors.Is(err, pushpull.ErrDegreeSortUnsupported) {
		t.Fatalf("gc-cr WithDegreeSorted: %v, want ErrDegreeSortUnsupported", err)
	}
	// A workload-level declaration is ambient: algorithms without support
	// ignore it instead of failing.
	w := pushpull.NewWorkload(wg, pushpull.AsWeighted(), pushpull.AsDegreeSorted())
	if _, err := pushpull.Run(context.Background(), w, "mst"); err != nil {
		t.Fatalf("mst on declared workload: %v", err)
	}
}

func TestLayoutViewsMemoized(t *testing.T) {
	g := skewedGraph(t)
	w := pushpull.NewWorkload(g, pushpull.AsDegreeSorted())
	for i := 0; i < 3; i++ {
		if _, err := pushpull.Run(context.Background(), w, "pr", pushpull.WithDirection(pushpull.Pull)); err != nil {
			t.Fatal(err)
		}
		if _, err := pushpull.Run(context.Background(), w, "bfs", pushpull.WithSource(0)); err != nil {
			t.Fatal(err)
		}
	}
	b := w.Builds()
	if b.DegreeSorts != 1 {
		t.Fatalf("DegreeSorts = %d, want 1", b.DegreeSorts)
	}
	if b.HubSplits != 0 {
		t.Fatalf("HubSplits = %d, want the documented 0", b.HubSplits)
	}
}

func TestLayoutOptionsInCacheKeyAndID(t *testing.T) {
	g := undirectedGraph(t, 400, 5)
	// Workload declarations are part of the content ID; plain handles keep
	// matching each other.
	plain, plain2 := pushpull.NewWorkload(g), pushpull.NewWorkload(g)
	if plain.ID() != plain2.ID() {
		t.Fatal("identical plain workloads disagree on ID")
	}
	// The IDs are pinned: they key DiskStore files and shard placement,
	// so removing a layout option must not move the ones that remain.
	for name, c := range map[string]struct {
		w    *pushpull.Workload
		want string
	}{
		"plain":       {plain, "w2c3036ed0d2aa2de-n400"},
		"ds":          {pushpull.NewWorkload(g, pushpull.AsDegreeSorted()), "wb8d6144cb3e5e07d-n400"},
		"ooc":         {pushpull.NewWorkload(g, pushpull.AsOutOfCore()), "w76e0f23d70ed827b-n400"},
		"ds+ooc":      {pushpull.NewWorkload(g, pushpull.AsDegreeSorted(), pushpull.AsOutOfCore()), "w38eb642b5b0eee39-n400"},
		"directed+ds": {pushpull.NewWorkload(g, pushpull.AsDirected(), pushpull.AsDegreeSorted()), "wc9de9c02b11c647c-n400"},
	} {
		if got := c.w.ID(); got != c.want {
			t.Errorf("%s: ID = %s, want %s", name, got, c.want)
		}
	}

	// Run options are part of the Engine cache key: a different option is
	// a different key, the same option hits.
	e := pushpull.NewEngine()
	w := pushpull.NewWorkload(g)
	run := func(opts ...pushpull.Option) *pushpull.Report {
		t.Helper()
		rep, err := e.Run(context.Background(), w, "pr", opts...)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := run(pushpull.WithDegreeSorted()); rep.Stats.CacheHit {
		t.Fatal("degree-sorted run must not share the plain key")
	}
	if rep := run(pushpull.WithDegreeSorted()); !rep.Stats.CacheHit {
		t.Fatal("identical degree-sorted run must hit the cache")
	}
	if rep := run(); rep.Stats.CacheHit {
		t.Fatal("plain run must not share the layout-optioned keys")
	}
}
