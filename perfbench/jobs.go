package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/cluster"
	"pushpull/jobs"
	"pushpull/serve"
)

// The routed-jobs workload: clients submit POST /jobs through a
// one-worker cluster router and poll GET /jobs/{id}/result through it
// until the result is there. Keys and graph are serve-hot's, so the
// kernel and engine cost the same; the difference is the router hop and
// the jobs plane.

// pollBackoff is the wait before each further poll of an unfinished job:
// short at first, because a cached job finishes in about a millisecond,
// then capped so a slow job does not burn a core on polls.
var pollBackoff = []time.Duration{0, 250 * time.Microsecond, 500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond}

type jobsInst struct {
	w      *worker
	mgr    *jobs.Manager
	rt     *cluster.Router
	router *front
	rtp    tracePoint
	hc     *http.Client
	keys   []*runKey
	bodies [][]byte // the POST /jobs body per key
	decks  []*deck
}

func setupRoutedJobs(seed uint64) (instance, error) {
	s := &jobsInst{hc: newHTTPClient()}
	eng := pushpull.NewEngine()
	mgr, err := jobs.NewManager(eng)
	if err != nil {
		return nil, err
	}
	s.mgr = mgr
	if s.w, err = startWorkerOn(eng, serve.WithJobManager(mgr)); err != nil {
		s.close()
		return nil, err
	}
	s.rt, err = cluster.New(cluster.Config{
		Workers:        []string{s.w.front.url},
		Replicas:       1,
		HealthInterval: -1,
		Client:         &http.Client{Transport: spanTransport{base: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}},
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.rt.Start(context.Background())
	if s.router, err = startFront(&layerHandler{next: s.rt, name: spanRouter, tp: &s.rtp}); err != nil {
		s.close()
		return nil, err
	}

	// Upload the serve-hot graph through the router, and take the
	// references on the workload parsed back from the uploaded bytes.
	src, err := hotGraph(seed)
	if err != nil {
		s.close()
		return nil, err
	}
	var up bytes.Buffer
	if err := pushpull.WriteWorkload(&up, src); err != nil {
		s.close()
		return nil, err
	}
	wl, err := pushpull.ReadWorkload(bytes.NewReader(up.Bytes()))
	if err != nil {
		s.close()
		return nil, err
	}
	cl := s.newClient()
	res, err := cl.do(nil, 0, "", "", http.MethodPut, "/graphs/hot", up.Bytes())
	if err == nil && res.status != http.StatusCreated {
		err = statusErr("PUT", "/graphs/hot", res)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	if s.keys, err = hotKeys("hot", wl); err != nil {
		s.close()
		return nil, err
	}
	for _, k := range s.keys {
		var rr api.RunRequest
		if err := json.Unmarshal(k.body, &rr); err != nil {
			s.close()
			return nil, err
		}
		b, err := json.Marshal(serve.JobRequest{Spec: jobs.Spec{Graph: rr.Graph, Algorithm: rr.Algorithm, Options: rr.Options}})
		if err != nil {
			s.close()
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	for c := range clients {
		s.decks = append(s.decks, newDeck(seed, c, hotMix))
	}
	// Warm-up: every key twice, the first a miss that fills the cache.
	t := &tally{}
	for range 2 {
		for i := range s.keys {
			s.job(cl, nil, "", i, t, nil, nil)
		}
	}
	if t.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", t.firstErr)
	}
	return s, nil
}

func (s *jobsInst) newClient() *client { return &client{hc: s.hc, base: s.router.url} }

func (s *jobsInst) close() {
	if s.router != nil {
		s.router.close()
	}
	if s.rt != nil {
		s.rt.Close()
	}
	if s.w != nil {
		s.w.close()
	}
	s.mgr.Close()
	s.hc.CloseIdleConnections()
}

// jobTrace is one client's traced view of the jobs it ran.
type jobTrace struct {
	ids   []string
	polls []float64
}

// job submits key i, polls its result until it is there, and checks it.
// It returns the job's latency, submit to checked result.
func (s *jobsInst) job(cl *client, tr *tracer, req string, i int, t *tally, ws *wireStats, jt *jobTrace) (time.Duration, bool) {
	opID := tr.reserve()
	start := time.Now()
	t.attempted++
	res, err := cl.do(tr, opID, req, spanClient, http.MethodPost, "/jobs", s.bodies[i])
	if err == nil && res.status != http.StatusAccepted {
		err = statusErr("POST", "/jobs", res)
	}
	if err != nil {
		t.fail(err, false)
		return 0, false
	}
	id, ok := jsonString(res.body, "id")
	if !ok {
		t.fail(fmt.Errorf("POST /jobs: no job id in %q", res.body), false)
		return 0, false
	}
	path := "/jobs/" + id + "/result"
	polls := 0
	for {
		if polls > 0 {
			time.Sleep(pollBackoff[min(polls, len(pollBackoff)-1)])
		}
		res, err = cl.do(tr, opID, req, spanClient, http.MethodGet, path, nil)
		polls++
		if err == nil && res.status != http.StatusOK && res.status != http.StatusAccepted {
			err = statusErr("GET", path, res)
		}
		if err != nil {
			if ws != nil {
				ws.errors++
			}
			t.fail(err, false)
			return 0, false
		}
		if res.status == http.StatusOK {
			break
		}
	}
	if err := s.keys[i].ref.check(res.body); err != nil {
		t.fail(err, true)
		return 0, false
	}
	end := time.Now()
	tr.addReserved(opID, 0, req, spanOp, start, end)
	if ws != nil {
		ws.observe(res)
		jt.ids = append(jt.ids, id)
		jt.polls = append(jt.polls, float64(polls))
	}
	return end.Sub(start), true
}

func (s *jobsInst) run(deadline time.Time, tr *tracer) *tally {
	s.rtp.set(tr)
	s.w.tp.set(tr)
	defer s.rtp.set(nil)
	defer s.w.tp.set(nil)
	eng0 := s.w.eng.Stats()
	var retried0 int64
	if tr != nil {
		retried0 = s.routerRetried()
	}
	cls := make([]*client, clients)
	ws := make([]*wireStats, clients)
	jts := make([]*jobTrace, clients)
	for c := range cls {
		cls[c] = s.newClient()
		if tr != nil {
			ws[c], jts[c] = &wireStats{}, &jobTrace{}
		}
	}
	t := drive(deadline, func(c, n int, t *tally) {
		if lat, ok := s.job(cls[c], tr, tr.reqID(c, n), s.decks[c].next(), t, ws[c], jts[c]); ok {
			t.ops++
			t.lat = append(t.lat, ms(lat))
		}
	})
	if tr == nil {
		return t
	}
	t.layers = servingLayers(tr, mergeWire(ws), eng0, s.w.eng.Stats(), encodeMS(s.keys, hotMix))
	var queue, polls []float64
	for _, jt := range jts {
		polls = append(polls, jt.polls...)
		for _, id := range jt.ids {
			if j, err := s.mgr.Get(id); err == nil && j.StartedMS > 0 {
				queue = append(queue, float64(j.StartedMS-j.SubmittedMS))
			}
		}
	}
	all, _ := s.mgr.List("", "")
	t.layers = append(t.layers,
		metric{"cluster.retried", float64(s.routerRetried() - retried0), "count", 1},
		metric{"jobs.queue_ms", median(queue), "ms", len(queue)},
		metric{"jobs.polls_per_job", mean(polls), "count", len(polls)},
		metric{"jobs.retained", float64(len(all)), "count", 1})
	return t
}

// routerRetried reads the router's retry counter from its GET /stats.
func (s *jobsInst) routerRetried() int64 {
	res, err := s.newClient().do(nil, 0, "", "", http.MethodGet, "/stats", nil)
	if err != nil || res.status != http.StatusOK {
		return 0
	}
	n, _ := jsonInt(res.body, "retried")
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
