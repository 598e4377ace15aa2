package pr

import (
	"time"

	"pushpull/internal/core"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
	"pushpull/internal/sched"
)

// Code regions for instruction-TLB modeling: each maps to one code page.
const (
	regionPushInit = iota
	regionPushScatter
	regionPushCommit
	regionPullGather
	regionPAPhase1
	regionPAPhase2
	regionBlockGather
)

// arrays bundles the modeled address ranges of the PageRank state so the
// cache simulator sees the same layout the fast variants use: the CSR
// offsets and adjacency, the rank vector and the next-rank vector.
type arrays struct {
	off, adj, pr, next memsim.Array
}

func modelArrays(g *graph.CSR, space *memsim.AddressSpace) arrays {
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	return arrays{
		off:  space.NewArray(g.N()+1, 8),
		adj:  space.NewArray(int(g.M()), 4),
		pr:   space.NewArray(g.N(), 8),
		next: space.NewArray(g.N(), 8),
	}
}

// PushProfiled executes push PageRank deterministically, reporting every
// access at the R/W-marked points of Algorithm 1 to the per-thread probes.
// The returned ranks equal the fast variants' output.
func PushProfiled(g *graph.CSR, opt Options, prof core.Profile, space *memsim.AddressSpace) ([]float64, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	a := modelArrays(g, space)
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
			// Read pr[v] and the two offsets bounding N(v).
			p.Read(a.pr.Addr(int64(vi)), 8)
			p.Read(a.off.Addr(int64(vi)), 8)
			d := g.Degree(v)
			p.Branch(d == 0)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			offs := g.Offsets[v]
			for i, u := range g.Neighbors(v) {
				p.Branch(true)                       // loop condition
				p.Read(a.adj.Addr(offs+int64(i)), 4) // sequential adj read
				p.Atomic(a.next.Addr(int64(u)), 8)   // W f: conflicting float add
				p.Jump()                             // call into the CAS helper
				next[u] += c                         // deterministic execution: no retries
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

// PullProfiled executes pull PageRank deterministically under the probes.
// It models the paper's gather, not Pull's: two random reads per edge —
// pr[u] and the offset pair giving d(u) — versus the single random atomic
// of pushing; this asymmetry is what Table 1's higher pull miss counts
// measure. Pull pre-scales the ranks once per iteration and reads only
// pr[u] per edge, but it divides the same values and sums them in the same
// order, so the two return identical ranks.
func PullProfiled(g *graph.CSR, opt Options, prof core.Profile, space *memsim.AddressSpace) ([]float64, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	a := modelArrays(g, space)
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
			p.Read(a.off.Addr(int64(vi)), 8)
			sum := 0.0
			offs := g.Offsets[v]
			for i, u := range g.Neighbors(v) {
				p.Branch(true)                       // loop condition
				p.Read(a.adj.Addr(offs+int64(i)), 4) // sequential adj read
				p.Read(a.pr.Addr(int64(u)), 8)       // R: random rank read
				p.Read(a.off.Addr(int64(u)), 8)      // random degree read
				du := g.Degree(u)
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

// PushPAProfiled executes partition-aware push PageRank under the probes:
// local edges issue plain writes, remote edges issue atomics, and the extra
// offset arrays of the 2n+2m layout are modeled too (the +n reads that make
// PA slower on sparse road graphs, §6.2).
func PushPAProfiled(pa *graph.PAGraph, opt Options, prof core.Profile, space *memsim.AddressSpace) ([]float64, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if prof.Threads != pa.Part.P {
		prof = core.Profile{Threads: pa.Part.P, Probes: prof.Probes}
		if err := prof.Validate(); err != nil {
			return nil, err
		}
	}
	g := pa.G
	n := g.N()
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	// PA layout: separate local/remote offset and adjacency arrays.
	locOff := space.NewArray(n+1, 8)
	remOff := space.NewArray(n+1, 8)
	locAdj := space.NewArray(len(pa.LocAdj), 4)
	remAdj := space.NewArray(len(pa.RemAdj), 4)
	off := space.NewArray(n+1, 8)
	prA := space.NewArray(n, 8)
	nextA := space.NewArray(n, 8)

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
			p.Write(nextA.Addr(int64(i)), 8)
		}
	}
	// Phase 1: local, non-atomic.
	localPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPAPhase1)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			p.Read(prA.Addr(int64(vi)), 8)
			p.Read(off.Addr(int64(vi)), 8)
			d := g.Degree(v)
			p.Branch(d == 0)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			p.Read(locOff.Addr(int64(vi)), 8)
			offs := pa.LocOff[v]
			for i, u := range pa.Local(v) {
				p.Branch(true)
				p.Read(locAdj.Addr(offs+int64(i)), 4)
				p.Read(nextA.Addr(int64(u)), 8)
				p.Write(nextA.Addr(int64(u)), 8) // plain store, no atomic
				next[u] += c
			}
		}
	}
	// Phase 2: remote, atomic.
	remotePhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPAPhase2)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			p.Read(prA.Addr(int64(vi)), 8)
			d := g.Degree(v)
			p.Branch(d == 0)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			p.Read(remOff.Addr(int64(vi)), 8)
			offs := pa.RemOff[v]
			for i, u := range pa.Remote(v) {
				p.Branch(true)
				p.Read(remAdj.Addr(offs+int64(i)), 4)
				p.Atomic(nextA.Addr(int64(u)), 8) // W i per Algorithm 8
				p.Jump()
				next[u] += c
			}
		}
	}
	commitPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPushCommit)
		for i := lo; i < hi; i++ {
			p.Read(nextA.Addr(int64(i)), 8)
			p.Write(prA.Addr(int64(i)), 8)
			pr[i] = next[i]
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		iterStart := time.Now()
		sched.SequentialFor(n, prof.Threads, initPhase)
		sched.SequentialFor(n, prof.Threads, localPhase)
		sched.SequentialFor(n, prof.Threads, remotePhase)
		sched.SequentialFor(n, prof.Threads, commitPhase)
		opt.Tick(l, time.Since(iterStart))
	}
	return pr, nil
}
