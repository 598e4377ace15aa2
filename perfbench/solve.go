package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"pushpull"
)

// The solve workload: one caller runs pushpull.Run at 1 thread. A round
// runs all 7 algorithms in both directions, in a seeded order that
// interleaves push and pull and the algorithms, so machine drift hits
// every per-algorithm number alike.

const (
	solveScale   = 12 // rmat scale of the main graph: n = 4096, about 16 edges per vertex
	solveTCScale = 9  // tc's own smaller rmat graph: its pair costs ~10× the others at equal size
	solveBCSrcs  = 2  // bc sources per run
)

var directions = []pushpull.Direction{pushpull.Push, pushpull.Pull}

type solveKey struct {
	algo string
	dir  pushpull.Direction
}

type solveInst struct {
	wl, tcwl *pushpull.Workload
	opts     map[string][]pushpull.Option // per-algorithm options (sources)
	refs     map[solveKey]*libRef
	order    *solveOrder
}

// solveOrder deals the per-round run order from the workload seed.
type solveOrder struct {
	rng  *rand.Rand
	keys []solveKey
}

func newSolveOrder(seed uint64) *solveOrder {
	o := &solveOrder{rng: rand.New(rand.NewPCG(seed, 0x501e))}
	for _, a := range algos {
		for _, d := range directions {
			o.keys = append(o.keys, solveKey{a, d})
		}
	}
	return o
}

// next returns the following round's order.
func (o *solveOrder) next() []solveKey {
	out := append([]solveKey(nil), o.keys...)
	o.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// pickSources returns the k highest-degree vertices of g that each reach
// at least half the graph. Hubs make a traversal's cost a property of the
// graph rather than of a lucky or stranded start, so seeds differ in
// their graphs, not in how much of them a source happens to see.
func pickSources(g *pushpull.Graph, k int) []pushpull.V {
	order := make([]pushpull.V, g.N())
	for v := range order {
		order[v] = pushpull.V(v)
	}
	sort.SliceStable(order, func(i, j int) bool { return g.Degree(order[i]) > g.Degree(order[j]) })
	var out []pushpull.V
	for _, v := range order {
		if len(out) == k || g.Degree(v) == 0 {
			break
		}
		if reach(g, v) >= g.N()/2 {
			out = append(out, v)
		}
	}
	return out
}

// reach counts the vertices a bfs from v reaches.
func reach(g *pushpull.Graph, v pushpull.V) int {
	rep, err := pushpull.Run(context.Background(), g, "bfs", pushpull.WithSource(v), pushpull.WithThreads(1))
	if err != nil {
		return 0
	}
	n := 0
	for _, l := range rep.Tree().Level {
		if l >= 0 {
			n++
		}
	}
	return n
}

func setupSolve(seed uint64) (instance, error) {
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(solveScale, 8, seed))
	if err != nil {
		return nil, err
	}
	g = pushpull.WithUniformWeights(g, 1, 100, seed+1)
	tg, err := pushpull.RMAT(pushpull.DefaultRMAT(solveTCScale, 8, seed+2))
	if err != nil {
		return nil, err
	}
	src := pickSources(g, 2+solveBCSrcs)
	if len(src) < 2+solveBCSrcs {
		return nil, fmt.Errorf("rmat seed %d has too few connected vertices", seed)
	}
	s := &solveInst{
		wl:   pushpull.Weighted(g),
		tcwl: pushpull.NewWorkload(tg),
		opts: map[string][]pushpull.Option{
			"bfs":  {pushpull.WithSource(src[0])},
			"sssp": {pushpull.WithSource(src[1])},
			"bc":   {pushpull.WithSources(src[2:])},
		},
		refs:  map[solveKey]*libRef{},
		order: newSolveOrder(seed),
	}
	// The references double as the warm-up of every (algorithm,
	// direction): any lazily built view lands in set-up, not in the loop.
	for _, k := range s.order.keys {
		rep, err := s.call(k)
		if err != nil {
			return nil, fmt.Errorf("reference %s %v: %w", k.algo, k.dir, err)
		}
		s.refs[k] = newLibRef(k.algo, s.graphFor(k.algo), rep)
	}
	return s, nil
}

func (s *solveInst) workloadFor(algo string) *pushpull.Workload {
	if algo == "tc" {
		return s.tcwl
	}
	return s.wl
}

func (s *solveInst) graphFor(algo string) *pushpull.Graph { return s.workloadFor(algo).Graph() }

func (s *solveInst) call(k solveKey) (*pushpull.Report, error) {
	opts := append([]pushpull.Option{pushpull.WithDirection(k.dir), pushpull.WithThreads(1)}, s.opts[k.algo]...)
	return pushpull.Run(context.Background(), s.workloadFor(k.algo), k.algo, opts...)
}

func (s *solveInst) close() {}

func (s *solveInst) builds() int {
	n := 0
	for _, w := range []*pushpull.Workload{s.wl, s.tcwl} {
		b := w.Builds()
		n += b.Transposes + b.PASplits + b.Stats + b.DegreeSorts + b.HubSplits + b.BlockBuilds
	}
	return n
}

func (s *solveInst) run(deadline time.Time, tr *tracer) *tally {
	t := &tally{}
	pair := map[string][]float64{}
	kern := map[solveKey][]float64{}
	iters := map[string][]float64{}
	var queue, elapsed []float64
	builds0 := s.builds()
	eng0 := pushpull.DefaultEngine().Stats()

	for round := 0; time.Now().Before(deadline); round++ {
		req := tr.reqID(0, round)
		roundStart := time.Now()
		opID := tr.reserve()
		sum := map[string]float64{}
		it := map[string]int{}
		for _, k := range s.order.next() {
			t0 := time.Now()
			rep, err := s.call(k)
			t1 := time.Now()
			t.attempted++
			if err != nil {
				t.fail(fmt.Errorf("%s %v: %w", k.algo, k.dir, err), false)
				continue
			}
			if err := s.refs[k].check(rep); err != nil {
				t.fail(err, true)
			}
			sum[k.algo] += ms(t1.Sub(t0))
			it[k.algo] += rep.Stats.Iterations
			kern[k] = append(kern[k], ms(rep.Stats.Elapsed))
			queue = append(queue, ms(rep.Stats.QueueWait))
			elapsed = append(elapsed, ms(rep.Stats.Elapsed))
			if tr != nil {
				id := tr.add(opID, req, spanRun, t0, t1)
				tr.addStats(id, req, t0, rep.Stats.QueueWait, rep.Stats.Elapsed)
			}
		}
		end := time.Now()
		tr.addReserved(opID, 0, req, spanOp, roundStart, end)
		for a, v := range sum {
			pair[a] = append(pair[a], v)
			iters[a] = append(iters[a], float64(it[a]))
		}
		t.ops++
		t.lat = append(t.lat, ms(end.Sub(roundStart)))
	}

	for _, a := range algos {
		t.extra = append(t.extra, series{a + "_ms", "ms", pair[a]})
	}
	if tr == nil {
		return t
	}
	self, _ := layerTimes(tr.snapshot())
	for _, a := range algos {
		t.layers = append(t.layers,
			metric{"kernel." + a + ".push_ms", median(kern[solveKey{a, pushpull.Push}]), "ms", len(kern[solveKey{a, pushpull.Push}])},
			metric{"kernel." + a + ".pull_ms", median(kern[solveKey{a, pushpull.Pull}]), "ms", len(kern[solveKey{a, pushpull.Pull}])},
			metric{"kernel." + a + ".iters", median(iters[a]), "count", len(iters[a])})
	}
	t.layers = append(t.layers,
		metric{"facade.self_ms", median(self[spanRun]), "ms", len(self[spanRun])},
		metric{"facade.view_builds", float64(s.builds() - builds0), "count", 1},
		metric{"engine.queue_wait_ms", median(queue), "ms", len(queue)},
		metric{"engine.kernel_ms", median(elapsed), "ms", len(elapsed)})
	t.layers = append(t.layers, engineFracs(eng0, pushpull.DefaultEngine().Stats())...)
	return t
}
