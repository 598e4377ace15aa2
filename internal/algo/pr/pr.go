// Package pr implements push- and pull-based PageRank (paper §3.1 and
// Algorithm 1) plus the Partition-Awareness acceleration of §5 (Algorithm
// 8).
//
// In the push variant, the thread owning v adds f·pr[v]/d(v) to new_pr[u]
// for every neighbor u — a write conflict per edge, resolved with an atomic
// CAS loop because CPUs have no float atomics (§4.1 charges these as
// O(Lm) synchronization events). In the paper's pull variant, the thread
// owning v reads pr[u] and d(u) of every neighbor and accumulates
// privately — no synchronization, but two random reads per edge instead of
// one random write, which is exactly the cache-miss trade-off Table 1
// reports. The *Profiled pull kernels model that gather. The fast pull
// kernels first divide every pr[u] by d(u) in place (n divisions instead
// of m), so the gather pays one random read per edge; the quotients and
// the summation order are the paper gather's, so the ranks are identical.
package pr

import (
	"math"
	"time"

	"pushpull/internal/atomicx"
	"pushpull/internal/core"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// DefaultDamping is the damp factor f used when none is set explicitly.
const DefaultDamping = 0.85

// DefaultIterations is the power-iteration count L used when none is set.
const DefaultIterations = 20

// Options configures a PageRank run.
type Options struct {
	core.Options
	// Iterations is the power-iteration count L (default 20).
	Iterations int
	// Damping is the damp factor f. A zero value left by struct literal
	// means "use DefaultDamping"; to request a genuine zero-damping run
	// (pure teleport distribution), call SetDamping(0) instead of
	// assigning the field.
	Damping float64
	// dampingSet distinguishes an explicit SetDamping(0) from the zero
	// value of the struct, so zero damping is expressible.
	dampingSet bool
}

// SetDamping pins the damp factor explicitly, including zero; defaults()
// will not rewrite a value set through here.
func (o *Options) SetDamping(f float64) {
	o.Damping = f
	o.dampingSet = true
}

func (o *Options) defaults() {
	if o.Iterations <= 0 {
		o.Iterations = DefaultIterations
	}
	if !o.dampingSet && o.Damping == 0 {
		o.Damping = DefaultDamping
	}
}

// Sequential computes the reference ranks with a single thread; push and
// pull variants are cross-validated against it.
func Sequential(g *graph.CSR, opt Options) []float64 {
	opt.defaults()
	n := g.N()
	pr := make([]float64, n)
	next := make([]float64, n)
	if n == 0 {
		return pr
	}
	initRank := 1 / float64(n)
	for i := range pr {
		pr[i] = initRank
	}
	base := (1 - opt.Damping) / float64(n)
	for l := 0; l < opt.Iterations; l++ {
		for i := range next {
			next[i] = base
		}
		for v := graph.V(0); v < g.NumV; v++ {
			d := g.Degree(v)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			for _, u := range g.Neighbors(v) {
				next[u] += c
			}
		}
		pr, next = next, pr
	}
	return pr
}

// Push runs the push-based variant: each vertex distributes its rank to its
// neighbors through atomic float adds.
func Push(g *graph.CSR, opt Options) ([]float64, core.RunStats) {
	opt.defaults()
	n := g.N()
	stats := core.RunStats{Direction: core.Push}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats
	}
	stats.Reserve(opt.Iterations)
	t := sched.Clamp(opt.Threads, n)
	initRank := 1 / float64(n)
	for i := range pr {
		pr[i] = initRank
	}
	nextBits := make([]uint64, n)
	base := (1 - opt.Damping) / float64(n)
	baseBits := math.Float64bits(base)
	// Phase bodies are hoisted out of the round loop: a func literal in
	// the loop would allocate its capture record every iteration, and the
	// steady state must not allocate.
	clearNext := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			nextBits[i] = baseBits
		}
	}
	scatter := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			d := g.Degree(v)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			for _, u := range g.Neighbors(v) {
				atomicx.AddFloat64(&nextBits[u], c)
			}
		}
	}
	commit := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			pr[i] = math.Float64frombits(nextBits[i])
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		if opt.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		sched.ParallelFor(n, t, opt.Schedule, 0, clearNext)
		sched.ParallelFor(n, t, opt.Schedule, 0, scatter)
		sched.ParallelFor(n, t, opt.Schedule, 0, commit)
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(l, el)
	}
	return pr, stats
}

// Pull runs the pull-based variant: each vertex gathers f·pr[u]/d(u) from
// its neighbors with no synchronization at all. Each iteration first
// scales pr[u] by 1/d(u) in place, so the gather reads one array per edge.
func Pull(g *graph.CSR, opt Options) ([]float64, core.RunStats) {
	opt.defaults()
	n := g.N()
	stats := core.RunStats{Direction: core.Pull}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats
	}
	stats.Reserve(opt.Iterations)
	t := sched.Clamp(opt.Threads, n)
	initRank := 1 / float64(n)
	for i := range pr {
		pr[i] = initRank
	}
	next := make([]float64, n)
	base := (1 - opt.Damping) / float64(n)
	// Hoisted phase bodies; they capture pr and next by reference, so the
	// per-round swap below stays visible without re-allocating the
	// closures each iteration. A degree-0 vertex is no vertex's neighbor,
	// so its unscaled rank is never gathered.
	scale := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			if d := g.Degree(graph.V(vi)); d != 0 {
				pr[vi] /= float64(d)
			}
		}
	}
	gather := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			sum := 0.0
			for _, u := range g.Neighbors(v) {
				sum += pr[u]
			}
			next[v] = base + opt.Damping*sum
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		// Checked before scaling, so a canceled run returns the last
		// gathered ranks, never a scaled vector.
		if opt.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		sched.ParallelFor(n, t, opt.Schedule, 0, scale)
		sched.ParallelFor(n, t, opt.Schedule, 0, gather)
		pr, next = next, pr
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(l, el)
	}
	return pr, stats
}

// PushPA runs push-based PageRank with the Partition-Awareness strategy
// (Algorithm 8): phase 1 updates same-owner neighbors with plain stores,
// a barrier separates the phases, then phase 2 updates remote neighbors
// with atomics. The number of atomics drops from 2m to the remote-edge
// count of the PA layout.
func PushPA(pa *graph.PAGraph, opt Options) ([]float64, core.RunStats) {
	opt.defaults()
	g := pa.G
	n := g.N()
	stats := core.RunStats{Direction: core.Push}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats
	}
	stats.Reserve(opt.Iterations)
	t := pa.Part.P
	initRank := 1 / float64(n)
	for i := range pr {
		pr[i] = initRank
	}
	nextBits := make([]uint64, n)
	base := (1 - opt.Damping) / float64(n)
	baseBits := math.Float64bits(base)
	pool := sched.NewPool(t)
	defer pool.Close()
	barrier := sched.NewBarrier(t)
	// Hoisted round body — allocating the closure per round would put the
	// allocator in the steady state.
	round := func(w int) {
		lo, hi := pa.Part.Range(w)
		for i := lo; i < hi; i++ {
			nextBits[i] = baseBits
		}
		barrier.Wait()
		// Phase 1: local updates, no atomics. Only thread w writes
		// vertices owned by w, so plain read-modify-write is safe.
		for v := lo; v < hi; v++ {
			d := g.Degree(v)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			for _, u := range pa.Local(v) {
				nextBits[u] = math.Float64bits(math.Float64frombits(nextBits[u]) + c)
			}
		}
		// The lightweight barrier of Algorithm 8, line 10.
		barrier.Wait()
		// Phase 2: remote updates with atomics.
		for v := lo; v < hi; v++ {
			d := g.Degree(v)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			for _, u := range pa.Remote(v) {
				atomicx.AddFloat64(&nextBits[u], c)
			}
		}
		barrier.Wait()
		for i := lo; i < hi; i++ {
			pr[i] = math.Float64frombits(nextBits[i])
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		if opt.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		pool.Run(round)
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(l, el)
	}
	return pr, stats
}

// MaxDiff returns the maximum absolute element difference between two rank
// vectors — the cross-validation metric.
func MaxDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > max {
			max = d
		}
	}
	return max
}

// Sum returns the total rank mass (≈1 for graphs without isolated or
// dangling vertices).
func Sum(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v
	}
	return s
}
