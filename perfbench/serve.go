package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/serve"
)

// The HTTP workloads: a serve.New worker over a caching pushpull.Engine
// on a loopback listener, driven by `clients` closed-loop clients.

const (
	hotScale   = 14 // rmat scale of the serve-hot (and routed-jobs) graph: n = 16384
	churnScale = 12 // rmat scale of a serve-churn upload: n = 4096
	churnPool  = 6  // uploads per client: rmat, er and rca, two seeds each
)

// hotAlgos are the serve-hot keys, float and integer payloads both; the
// mix deals each key hotMix[i] times per cycle of the deck.
var (
	hotAlgos = []string{"pr", "sssp", "bfs", "gc"}
	hotMix   = []int{2, 3, 1, 1}
)

// deck deals key indices in seeded shuffled cycles, each cycle holding
// key i counts[i] times, so the mix is exact over every cycle.
type deck struct {
	rng   *rand.Rand
	cycle []int
	pos   int
}

func newDeck(seed uint64, stream int, counts []int) *deck {
	d := &deck{rng: rand.New(rand.NewPCG(seed, 0xdec0+uint64(stream)))}
	for k, n := range counts {
		for range n {
			d.cycle = append(d.cycle, k)
		}
	}
	d.pos = len(d.cycle)
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cycle) {
		d.rng.Shuffle(len(d.cycle), func(i, j int) { d.cycle[i], d.cycle[j] = d.cycle[j], d.cycle[i] })
		d.pos = 0
	}
	d.pos++
	return d.cycle[d.pos-1]
}

// runKey is one POST /run request with its expected payload.
type runKey struct {
	algo string
	body []byte // the encoded api.RunRequest
	ref  *wireRef
	rep  *pushpull.Report // the library-path reference report
}

// newRunKey encodes the request and computes its reference through the
// library path with the very options the worker will lower it to.
func newRunKey(graph string, wl *pushpull.Workload, algo string, opts api.RunOptions) (*runKey, error) {
	body, err := json.Marshal(api.RunRequest{Graph: graph, Algorithm: algo, Options: opts})
	if err != nil {
		return nil, err
	}
	o, err := opts.ToOptions()
	if err != nil {
		return nil, err
	}
	rep, err := pushpull.Run(context.Background(), wl, algo, o...)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", algo, err)
	}
	ref, err := newWireRef(algo, wl.Graph(), rep)
	if err != nil {
		return nil, err
	}
	return &runKey{algo: algo, body: body, ref: ref, rep: rep}, nil
}

// sourceOf returns the bfs and sssp source of g.
func sourceOf(g *pushpull.Graph) (int, error) {
	src := pickSources(g, 1)
	if len(src) == 0 {
		return 0, fmt.Errorf("no vertex reaches half of the %d-vertex graph", g.N())
	}
	return int(src[0]), nil
}

// hotKeys builds the serve-hot keys on a registered graph.
func hotKeys(graph string, wl *pushpull.Workload) ([]*runKey, error) {
	src, err := sourceOf(wl.Graph())
	if err != nil {
		return nil, err
	}
	var keys []*runKey
	for _, a := range hotAlgos {
		// One thread makes every payload, gc's colours included, equal
		// to its reference byte for byte: the check is one comparison.
		opts := api.RunOptions{Threads: 1}
		if a == "bfs" || a == "sssp" {
			opts.Source = src
		}
		k, err := newRunKey(graph, wl, a, opts)
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	return keys, nil
}

func hotGraph(seed uint64) (*pushpull.Workload, error) {
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(hotScale, 8, seed))
	if err != nil {
		return nil, err
	}
	return pushpull.Weighted(pushpull.WithUniformWeights(g, 1, 100, seed+1)), nil
}

// wireStats is one client's traced view of the responses it received.
type wireStats struct {
	queue, kernel, size []float64
	errors              int
}

func (w *wireStats) observe(c call) {
	q, _ := jsonInt(c.body, "queue_wait_ns")
	w.queue = append(w.queue, float64(q)/1e6)
	if !jsonTrue(c.body, "cache_hit") && !jsonTrue(c.body, "coalesced") {
		if k, ok := jsonInt(c.body, "elapsed_ns"); ok {
			w.kernel = append(w.kernel, float64(k)/1e6)
		}
	}
	w.size = append(w.size, float64(len(c.body))/1024)
}

func mergeWire(ws []*wireStats) *wireStats {
	out := &wireStats{}
	for _, w := range ws {
		out.queue = append(out.queue, w.queue...)
		out.kernel = append(out.kernel, w.kernel...)
		out.size = append(out.size, w.size...)
		out.errors += w.errors
	}
	return out
}

// encodeMS times api.BuildResponse plus json.Marshal on the keys'
// reference reports, each key sampled in proportion to its weight.
func encodeMS(keys []*runKey, weight []int) []float64 {
	var out []float64
	for i, k := range keys {
		for range 4 * weight[i] {
			t0 := time.Now()
			_, _ = json.Marshal(api.BuildResponse("g", k.rep)) // only the time counts
			out = append(out, ms(time.Since(t0)))
		}
	}
	return out
}

// postRun sends one POST /run for key and checks the answer into t.
func postRun(cl *client, tr *tracer, parent int64, req string, k *runKey, t *tally, ws *wireStats) (call, bool) {
	res, err := cl.do(tr, parent, req, spanClient, http.MethodPost, "/run", k.body)
	t.attempted++
	if err != nil {
		t.fail(err, false)
		return res, false
	}
	if res.status != http.StatusOK {
		if ws != nil {
			ws.errors++
		}
		t.fail(statusErr("POST", "/run", res), false)
		return res, false
	}
	if err := k.ref.check(res.body); err != nil {
		t.fail(err, true)
		return res, false
	}
	if ws != nil {
		ws.observe(res)
	}
	return res, true
}

// worker is a serve.New worker on its own loopback listener.
type worker struct {
	eng   *pushpull.Engine
	srv   *serve.Server
	front *front
	tp    tracePoint
}

func startWorker() (*worker, error) { return startWorkerOn(pushpull.NewEngine()) }

func startWorkerOn(eng *pushpull.Engine, opts ...serve.Option) (*worker, error) {
	w := &worker{eng: eng}
	w.srv = serve.New(eng, opts...)
	f, err := startFront(&layerHandler{next: w.srv, name: spanWorker, tp: &w.tp, worker: true})
	if err != nil {
		return nil, err
	}
	w.front = f
	return w, nil
}

func (w *worker) close() {
	w.front.close()
	w.srv.Drain()
}

// ---- serve-hot ----

type hotInst struct {
	w     *worker
	hc    *http.Client
	keys  []*runKey
	decks []*deck
}

func setupServeHot(seed uint64) (instance, error) {
	wl, err := hotGraph(seed)
	if err != nil {
		return nil, err
	}
	w, err := startWorker()
	if err != nil {
		return nil, err
	}
	s := &hotInst{w: w, hc: newHTTPClient()}
	if err := w.eng.RegisterWorkload("hot", wl); err != nil {
		s.close()
		return nil, err
	}
	if s.keys, err = hotKeys("hot", wl); err != nil {
		s.close()
		return nil, err
	}
	for c := range clients {
		s.decks = append(s.decks, newDeck(seed, c, hotMix))
	}
	// Warm-up: each key once to fill the cache, once as a hit.
	cl := &client{hc: s.hc, base: w.front.url}
	t := &tally{}
	for range 2 {
		for _, k := range s.keys {
			postRun(cl, nil, 0, "", k, t, nil)
		}
	}
	if t.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", t.firstErr)
	}
	return s, nil
}

func (s *hotInst) close() {
	s.w.close()
	s.hc.CloseIdleConnections()
}

func (s *hotInst) run(deadline time.Time, tr *tracer) *tally {
	s.w.tp.set(tr)
	defer s.w.tp.set(nil)
	eng0 := s.w.eng.Stats()
	cls := make([]*client, clients)
	ws := make([]*wireStats, clients)
	for c := range cls {
		cls[c] = &client{hc: s.hc, base: s.w.front.url}
		if tr != nil {
			ws[c] = &wireStats{}
		}
	}
	t := drive(deadline, func(c, n int, t *tally) {
		k := s.keys[s.decks[c].next()]
		if res, ok := postRun(cls[c], tr, 0, tr.reqID(c, n), k, t, ws[c]); ok {
			t.ops++
			t.lat = append(t.lat, ms(res.lat))
		}
	})
	if tr != nil {
		t.layers = servingLayers(tr, mergeWire(ws), eng0, s.w.eng.Stats(), encodeMS(s.keys, hotMix))
	}
	return t
}

// servingLayers collects the per-layer metrics shared by the HTTP
// workloads.
func servingLayers(tr *tracer, w *wireStats, eng0, eng1 pushpull.EngineStats, encode []float64) []metric {
	m := wireLayers(tr.snapshot())
	m = append(m,
		metric{"engine.queue_wait_ms", median(w.queue), "ms", len(w.queue)},
		metric{"engine.kernel_ms", median(w.kernel), "ms", len(w.kernel)},
		metric{"serve.encode_ms", median(encode), "ms", len(encode)},
		metric{"serve.resp_kb", median(w.size), "KB", len(w.size)},
		metric{"serve.errors", float64(w.errors), "count", len(w.size) + w.errors})
	return append(m, engineFracs(eng0, eng1)...)
}

// ---- serve-churn ----

// churnGraph is one upload of the serve-churn pool with its run keys.
type churnGraph struct {
	upload []byte // the edge list PUT /graphs sends
	keys   []*runKey
	repeat int // the key run a second time, as a cache hit
}

type churnInst struct {
	w     *worker
	hc    *http.Client
	pools [][]*churnGraph // per client
	decks []*deck         // per client: the order of its uploads
	last  []int           // per client: the upload bound now
}

// churnName is the graph name client c uploads to: one per client, so a
// PUT never swaps the graph under the other client's runs.
func churnName(c int) string { return fmt.Sprintf("churn-%d", c) }

func churnPath(c int) string { return "/graphs/" + churnName(c) }

// churnAlgos run after every upload, with default options.
var churnAlgos = []string{"pr", "bfs", "sssp", "gc"}

// churnFamilies alternate low-diameter (rmat, er) and high-diameter (rca)
// uploads, so the push↔pull switch sees both.
var churnFamilies = []string{"rmat", "er", "rca"}

func churnSource(family string, seed uint64) (*pushpull.Graph, error) {
	var g *pushpull.Graph
	var err error
	switch family {
	case "rmat":
		g, err = pushpull.RMAT(pushpull.DefaultRMAT(churnScale, 8, seed))
	case "er":
		g, err = pushpull.ErdosRenyi(1<<churnScale, 8, seed)
	case "rca":
		g, err = pushpull.RoadGrid(64, 64, 0.72, seed)
	default:
		err = fmt.Errorf("unknown family %q", family)
	}
	if err != nil {
		return nil, err
	}
	return pushpull.WithUniformWeights(g, 1, 100, seed+1), nil
}

// newChurnGraph generates one upload and computes its references on the
// workload the worker will parse from the same bytes.
func newChurnGraph(name, family string, seed uint64) (*churnGraph, error) {
	g, err := churnSource(family, seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := pushpull.WriteWorkload(&buf, pushpull.Weighted(g)); err != nil {
		return nil, err
	}
	wl, err := pushpull.ReadWorkload(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	cg := &churnGraph{upload: buf.Bytes(), repeat: int(seed % uint64(len(churnAlgos)))}
	src, err := sourceOf(wl.Graph())
	if err != nil {
		return nil, err
	}
	for _, a := range churnAlgos {
		var opts api.RunOptions
		if a == "bfs" || a == "sssp" {
			opts.Source = src
		}
		k, err := newRunKey(name, wl, a, opts)
		if err != nil {
			return nil, err
		}
		cg.keys = append(cg.keys, k)
	}
	return cg, nil
}

func setupServeChurn(seed uint64) (instance, error) {
	w, err := startWorker()
	if err != nil {
		return nil, err
	}
	s := &churnInst{w: w, hc: newHTTPClient(), last: make([]int, clients)}
	for c := range clients {
		name := churnName(c)
		var pool []*churnGraph
		for i := range churnPool {
			gs := seed*1000 + uint64(c*churnPool+i)
			cg, err := newChurnGraph(name, churnFamilies[i%len(churnFamilies)], gs)
			if err != nil {
				s.close()
				return nil, err
			}
			pool = append(pool, cg)
		}
		s.pools = append(s.pools, pool)
		counts := make([]int, churnPool)
		for i := range counts {
			counts[i] = 1
		}
		s.decks = append(s.decks, newDeck(seed, 100+c, counts))
		s.last[c] = -1
	}
	// Warm-up: one full cycle per client.
	t := &tally{}
	for c := range clients {
		s.cycle(&client{hc: s.hc, base: w.front.url}, c, 0, nil, t, nil, nil)
	}
	if t.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", t.firstErr)
	}
	return s, nil
}

func (s *churnInst) close() {
	s.w.close()
	s.hc.CloseIdleConnections()
}

// nextUpload deals client c's next upload, never the one bound now, so
// every PUT changes the content behind the name.
func (s *churnInst) nextUpload(c int) int {
	i := s.decks[c].next()
	if i == s.last[c] {
		i = s.decks[c].next()
	}
	s.last[c] = i
	return i
}

// cycle is one closed-loop operation: PUT a new upload, run every key
// on it (misses), then repeat one key (a cache hit). Its latency is the
// whole cycle's, which is what a client re-analysing fresh data waits
// for; the PUT latency is reported on its own.
func (s *churnInst) cycle(cl *client, c, n int, tr *tracer, t *tally, ws *wireStats, puts *[]float64) {
	cg := s.pools[c][s.nextUpload(c)]
	req := tr.reqID(c, n)
	path := churnPath(c)
	opID := tr.reserve()
	start := time.Now()
	res, err := cl.do(tr, opID, req, spanClient+".put", http.MethodPut, path, cg.upload)
	t.attempted++
	switch {
	case err != nil:
		t.fail(err, false)
		return
	case res.status != http.StatusCreated:
		t.fail(statusErr("PUT", path, res), false)
		return
	}
	if puts != nil {
		*puts = append(*puts, ms(res.lat))
	}
	for _, k := range append(cg.keys, cg.keys[cg.repeat]) {
		if _, ok := postRun(cl, tr, opID, req, k, t, ws); !ok {
			return
		}
	}
	end := time.Now()
	tr.addReserved(opID, 0, req, spanOp, start, end)
	t.ops++
	t.lat = append(t.lat, ms(end.Sub(start)))
}

func (s *churnInst) run(deadline time.Time, tr *tracer) *tally {
	s.w.tp.set(tr)
	defer s.w.tp.set(nil)
	eng0 := s.w.eng.Stats()
	cls := make([]*client, clients)
	ws := make([]*wireStats, clients)
	puts := make([][]float64, clients)
	for c := range cls {
		cls[c] = &client{hc: s.hc, base: s.w.front.url}
		if tr != nil {
			ws[c] = &wireStats{}
		}
	}
	t := drive(deadline, func(c, n int, t *tally) {
		s.cycle(cls[c], c, n, tr, t, ws[c], &puts[c])
	})
	t.extra = append(t.extra, series{"put_p50_ms", "ms", append(puts[0], puts[1]...)})
	if tr != nil {
		var keys []*runKey
		var weight []int
		for _, cg := range s.pools[0] {
			keys = append(keys, cg.keys...)
			for i := range cg.keys {
				w := 1
				if i == cg.repeat {
					w = 2
				}
				weight = append(weight, w)
			}
		}
		t.layers = servingLayers(tr, mergeWire(ws), eng0, s.w.eng.Stats(), encodeMS(keys, weight))
	}
	return t
}
