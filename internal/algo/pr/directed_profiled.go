package pr

import (
	"time"

	"pushpull/internal/core"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
	"pushpull/internal/sched"
)

// Instrumented directed PageRank: the §4.8 kernels under the
// deterministic probes, charging exactly what the fast variants do — one
// conflicting atomic per out-edge when pushing, two random reads per
// in-edge (rank and out-degree of the in-neighbor) when pulling. The
// modeled layout adds the transpose's offset and adjacency arrays, the
// extra n + 2m cells a directed graph pays for serving both views.

// directedArrays bundles the modeled address ranges of directed PageRank:
// the out-CSR, the in-CSR (transpose), and the two rank vectors.
type directedArrays struct {
	outOff, outAdj, inOff, inAdj, pr, next memsim.Array
}

func modelDirectedArrays(dg *DirectedGraph, space *memsim.AddressSpace) directedArrays {
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	a := directedArrays{
		outOff: space.NewArray(dg.Out.N()+1, 8),
		outAdj: space.NewArray(int(dg.Out.M()), 4),
		pr:     space.NewArray(dg.Out.N(), 8),
		next:   space.NewArray(dg.Out.N(), 8),
	}
	// Push-only runs carry no in-view (the engine materializes the
	// transpose lazily, for pulls alone); skip its model arrays then.
	if dg.In != nil {
		a.inOff = space.NewArray(dg.In.N()+1, 8)
		a.inAdj = space.NewArray(int(dg.In.M()), 4)
	}
	return a
}

// PushDirectedProfiled executes push directed PageRank deterministically
// under the probes: rank scatters along out-edges, an atomic float add per
// arc. The returned ranks equal PushDirected's output.
func PushDirectedProfiled(dg *DirectedGraph, opt Options, prof core.Profile, space *memsim.AddressSpace) ([]float64, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	n := dg.Out.N()
	a := modelDirectedArrays(dg, space)
	pr := make([]float64, n)
	next := make([]float64, n)
	if n == 0 {
		return pr, nil
	}
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	base := (1 - opt.Damping) / float64(n)
	// Phase bodies hoisted out of the iteration loop so the modeled run
	// allocates nothing per round, matching the fast variants.
	initPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPushInit)
		for i := lo; i < hi; i++ {
			next[i] = base
			p.Write(a.next.Addr(int64(i)), 8)
		}
	}
	scatterPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPushScatter)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			p.Read(a.pr.Addr(int64(vi)), 8)
			p.Read(a.outOff.Addr(int64(vi)), 8)
			d := dg.Out.Degree(v)
			p.Branch(d == 0)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			offs := dg.Out.Offsets[v]
			for i, u := range dg.Out.Neighbors(v) {
				p.Branch(true)                          // loop condition
				p.Read(a.outAdj.Addr(offs+int64(i)), 4) // sequential out-adj read
				p.Atomic(a.next.Addr(int64(u)), 8)      // W f: conflicting float add
				p.Jump()                                // CAS helper
				next[u] += c
			}
		}
	}
	commitPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPushCommit)
		for i := lo; i < hi; i++ {
			p.Read(a.next.Addr(int64(i)), 8)
			p.Write(a.pr.Addr(int64(i)), 8)
			pr[i] = next[i]
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		iterStart := time.Now()
		sched.SequentialFor(n, prof.Threads, initPhase)
		sched.SequentialFor(n, prof.Threads, scatterPhase)
		sched.SequentialFor(n, prof.Threads, commitPhase)
		opt.Tick(l, time.Since(iterStart))
	}
	return pr, nil
}

// PullDirectedProfiled executes pull directed PageRank deterministically
// under the probes: each vertex gathers along its in-edges with no
// synchronization, paying two random reads per arc — the in-neighbor's
// rank and its *out*-degree (§7.3). PullDirected pre-scales the ranks and
// reads one array per arc instead, but with the same quotients summed in
// the same order, so the returned ranks equal its output exactly.
func PullDirectedProfiled(dg *DirectedGraph, opt Options, prof core.Profile, space *memsim.AddressSpace) ([]float64, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	n := dg.Out.N()
	a := modelDirectedArrays(dg, space)
	pr := make([]float64, n)
	next := make([]float64, n)
	if n == 0 {
		return pr, nil
	}
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	base := (1 - opt.Damping) / float64(n)
	// Hoisted gather body; pr and next are captured by reference, so the
	// per-round swap stays visible.
	gatherPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPullGather)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			p.Read(a.inOff.Addr(int64(vi)), 8)
			sum := 0.0
			offs := dg.In.Offsets[v]
			for i, u := range dg.In.Neighbors(v) {
				p.Branch(true)                         // loop condition
				p.Read(a.inAdj.Addr(offs+int64(i)), 4) // sequential in-adj read
				p.Read(a.pr.Addr(int64(u)), 8)         // R: random rank read
				p.Read(a.outOff.Addr(int64(u)), 8)     // random out-degree read
				du := dg.Out.Degree(u)
				if du == 0 {
					continue
				}
				sum += pr[u] / float64(du)
			}
			p.Write(a.next.Addr(int64(vi)), 8) // private, no conflict
			next[vi] = base + opt.Damping*sum
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		iterStart := time.Now()
		sched.SequentialFor(n, prof.Threads, gatherPhase)
		pr, next = next, pr
		opt.Tick(l, time.Since(iterStart))
	}
	return pr, nil
}
