package pr

import (
	"time"

	"pushpull/internal/core"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
	"pushpull/internal/sched"
)

// Block-sequential pull PageRank over an out-of-core BlockCSR, after
// HybridGraph's BPull: workers walk destination blocks in storage order,
// so the edge traffic the in-memory kernel pays as random DRAM reads
// becomes sequential segment reads the OS can prefetch — page faults
// arrive in file order. Only the O(n) vertex state (ranks, degrees,
// offsets) is resident; the O(m) adjacency streams through per-worker
// cursors. Rows are gathered in the in-memory kernels' order, so results
// match Pull/PullDirected exactly.

// contribDegrees returns the per-vertex degree a neighbor's contribution
// scales by: the out-degree sidecar of a directed file, or the pull-view
// degree of an undirected one, materialized once so the kernels pay a
// single indexed read instead of re-deriving it from offsets.
func contribDegrees(bg *graph.BlockCSR) []int64 {
	if bg.OutDeg != nil {
		return bg.OutDeg
	}
	n := bg.N()
	deg := make([]int64, n)
	for i := 0; i < n; i++ {
		deg[i] = bg.Offsets[i+1] - bg.Offsets[i]
	}
	return deg
}

// PullBlocked runs pull PageRank over a block-format graph. Parallelism
// is over blocks: a static schedule hands each worker a contiguous block
// range, keeping every worker's I/O sequential within its span. As in
// Pull, each iteration first scales the resident ranks by their degrees
// in place, so the gather reads one array per streamed edge.
func PullBlocked(bg *graph.BlockCSR, opt Options) ([]float64, core.RunStats, error) {
	opt.defaults()
	n := bg.N()
	stats := core.RunStats{Direction: core.Pull}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats, nil
	}
	stats.Reserve(opt.Iterations)
	numBlocks := bg.NumBlocks()
	t := sched.Clamp(opt.Threads, numBlocks)
	initRank := 1 / float64(n)
	for i := range pr {
		pr[i] = initRank
	}
	next := make([]float64, n)
	deg := contribDegrees(bg)
	base := (1 - opt.Damping) / float64(n)
	// Per-worker cursors and error slots, hoisted with the gather body so
	// the steady state allocates nothing (the cursor's fallback buffer
	// grows to the largest segment once, then is reused every round).
	curs := make([]graph.BlockCursor, t)
	errs := make([]error, t)
	// A degree-0 vertex appears in no row, so its unscaled rank is never
	// gathered.
	scale := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if d := deg[i]; d != 0 {
				pr[i] /= float64(d)
			}
		}
	}
	gather := func(w, lo, hi int) {
		cur := &curs[w]
		for bi := lo; bi < hi; bi++ {
			if errs[w] != nil {
				return
			}
			if err := bg.Load(bi, cur); err != nil {
				errs[w] = err
				return
			}
			blo, bhi := bg.BlockRange(bi)
			for v := blo; v < bhi; v++ {
				sum := 0.0
				for _, u := range cur.Row(v) {
					sum += pr[u]
				}
				next[v] = base + opt.Damping*sum
			}
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		// Checked before scaling: a canceled run never returns a scaled
		// vector.
		if opt.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		sched.ParallelFor(n, t, opt.Schedule, 0, scale)
		sched.ParallelFor(numBlocks, t, opt.Schedule, 0, gather)
		for _, err := range errs {
			if err != nil {
				return nil, stats, err
			}
		}
		pr, next = next, pr
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(l, el)
	}
	return pr, stats, nil
}

// blockArrays models the out-of-core state: the resident offset, degree
// and rank arrays plus the streamed adjacency and the small block index
// consulted once per block.
type blockArrays struct {
	off, adj, deg, blockOff, pr, next memsim.Array
}

func modelBlockArrays(bg *graph.BlockCSR, space *memsim.AddressSpace) blockArrays {
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	n := bg.N()
	return blockArrays{
		off:      space.NewArray(n+1, 8),
		adj:      space.NewArray(int(bg.M()), 4),
		deg:      space.NewArray(n, 8),
		blockOff: space.NewArray(bg.NumBlocks()+1, 8),
		pr:       space.NewArray(n, 8),
		next:     space.NewArray(n, 8),
	}
}

// PullBlockedProfiled executes blocked pull PageRank deterministically
// under the probes. The traffic signature it reports is the point of the
// layout: adjacency reads are sequential within a block segment, and the
// only random accesses are the O(n)-resident rank and degree arrays —
// the probe trace shows sequential edge I/O where PullProfiled shows a
// random off-array walk.
func PullBlockedProfiled(bg *graph.BlockCSR, opt Options, prof core.Profile, space *memsim.AddressSpace) ([]float64, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	n := bg.N()
	a := modelBlockArrays(bg, space)
	pr := make([]float64, n)
	next := make([]float64, n)
	if n == 0 {
		return pr, nil
	}
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	deg := contribDegrees(bg)
	base := (1 - opt.Damping) / float64(n)
	numBlocks := bg.NumBlocks()
	curs := make([]graph.BlockCursor, prof.Threads)
	errs := make([]error, prof.Threads)
	gatherPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionBlockGather)
		cur := &curs[w]
		for bi := lo; bi < hi; bi++ {
			if errs[w] != nil {
				return
			}
			p.Read(a.blockOff.Addr(int64(bi)), 8)
			if err := bg.Load(bi, cur); err != nil {
				errs[w] = err
				return
			}
			blo, bhi := bg.BlockRange(bi)
			for v := blo; v < bhi; v++ {
				p.Read(a.off.Addr(int64(v)), 8)
				sum := 0.0
				offs := bg.Offsets[v]
				for i, u := range cur.Row(v) {
					p.Branch(true)
					p.Read(a.adj.Addr(offs+int64(i)), 4) // sequential within the segment
					p.Read(a.pr.Addr(int64(u)), 8)       // R: random rank read
					p.Read(a.deg.Addr(int64(u)), 8)      // random degree read
					du := deg[u]
					if du == 0 {
						continue
					}
					sum += pr[u] / float64(du)
				}
				p.Write(a.next.Addr(int64(v)), 8) // private, no conflict
				next[v] = base + opt.Damping*sum
			}
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		iterStart := time.Now()
		sched.SequentialFor(numBlocks, prof.Threads, gatherPhase)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		pr, next = next, pr
		opt.Tick(l, time.Since(iterStart))
	}
	return pr, nil
}
