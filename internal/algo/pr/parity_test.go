package pr

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"pushpull/internal/core"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
)

// orient keeps a deterministic, asymmetric subset of an undirected graph's
// arcs as a directed graph: u→v survives when u < v, or when u+v is a
// multiple of 3. Some vertices lose every out-arc, so the dangling-vertex
// skip of the scale phase is exercised.
func orient(t *testing.T, g *graph.CSR) *DirectedGraph {
	t.Helper()
	b := graph.NewBuilder(g.N()).Directed()
	for u := graph.V(0); u < g.NumV; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v || (u+v)%3 == 0 {
				b.AddEdge(u, v)
			}
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return NewDirected(out)
}

func openBlock(t *testing.T, pull *graph.CSR, outDeg []int64) *graph.BlockCSR {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.blk")
	// 64-vertex blocks: many blocks, so the parallel run spans workers.
	if err := graph.WriteBlockFile(path, pull, outDeg, 64); err != nil {
		t.Fatal(err)
	}
	bg, err := graph.OpenBlockCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bg.Close() })
	return bg
}

func outDegrees(g *graph.CSR) []int64 {
	deg := make([]int64, g.N())
	for v := range deg {
		deg[v] = g.Degree(graph.V(v))
	}
	return deg
}

// The fast pull kernels pre-scale ranks in place and read one array per
// edge; their serial *Profiled twins keep the paper's two-reads-per-edge
// gather. Both divide the same values and sum them in the same order, so
// the ranks must be equal element for element — a ≤1e-9 tolerance would
// not catch a reordered sum.
func TestPullKernelsExactlyMatchProfiled(t *testing.T) {
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	er, err := gen.ErdosRenyi(1000, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Iterations: 12}
	opt.Threads = 4
	type kernels struct {
		fast     func() ([]float64, error)
		profiled func(prof core.Profile) ([]float64, error)
	}
	cases := map[string]kernels{}
	for name, g := range map[string]*graph.CSR{"rmat": rmat, "er": er} {
		g := g
		ds := graph.SortByDegree(g).G
		dg := orient(t, g)
		bg := openBlock(t, g, nil)
		dbg := openBlock(t, dg.In, outDegrees(dg.Out))
		cases[name+"/pull"] = kernels{
			func() ([]float64, error) { r, _ := Pull(g, opt); return r, nil },
			func(p core.Profile) ([]float64, error) { return PullProfiled(g, opt, p, nil) },
		}
		cases[name+"/pull-ds"] = kernels{
			func() ([]float64, error) { r, _ := Pull(ds, opt); return r, nil },
			func(p core.Profile) ([]float64, error) { return PullProfiled(ds, opt, p, nil) },
		}
		cases[name+"/pull-directed"] = kernels{
			func() ([]float64, error) { r, _ := PullDirected(dg, opt); return r, nil },
			func(p core.Profile) ([]float64, error) { return PullDirectedProfiled(dg, opt, p, nil) },
		}
		cases[name+"/pull-blocked"] = kernels{
			func() ([]float64, error) { r, _, err := PullBlocked(bg, opt); return r, err },
			func(p core.Profile) ([]float64, error) { return PullBlockedProfiled(bg, opt, p, nil) },
		}
		cases[name+"/pull-blocked-directed"] = kernels{
			func() ([]float64, error) { r, _, err := PullBlocked(dbg, opt); return r, err },
			func(p core.Profile) ([]float64, error) { return PullBlockedProfiled(dbg, opt, p, nil) },
		}
	}
	for name, k := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := k.fast()
			if err != nil {
				t.Fatal(err)
			}
			prof, _ := core.CountingProfile(1)
			want, err := k.profiled(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("len %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rank[%d] = %v, want %v (diff %g)", i, got[i], want[i], got[i]-want[i])
				}
			}
		})
	}
}

// A run canceled between iterations must return the last gathered ranks,
// not the in-place scaled vector the next iteration had started from.
func TestPullCanceledReturnsUnscaledRanks(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Pull(g, Options{Iterations: 3})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{Iterations: 10}
	opt.Ctx = ctx
	opt.OnIteration = func(iter int, _ time.Duration) {
		if iter == 2 {
			cancel()
		}
	}
	got, stats := Pull(g, opt)
	if !stats.Canceled || stats.Iterations != 3 {
		t.Fatalf("stats = %+v, want canceled after 3 iterations", stats)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
