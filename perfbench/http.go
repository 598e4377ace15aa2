package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: at most one per core of the
// 2-core box the benchmark was sized on, each with its own connection.
const clients = 2

// Headers carrying the trace context from the client into the layers.
const (
	hdrReq    = "X-Request-ID"
	hdrParent = "X-Bench-Parent-Span"
)

// front serves a handler on a loopback listener.
type front struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startFront(h http.Handler) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return f, nil
}

// close stops the server and waits for its accept loop to exit.
func (f *front) close() {
	f.srv.Close()
	<-f.done
}

// newHTTPClient returns a client holding at most `clients` connections.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// tracePoint is the settable tracer a layer wrapper consults: nil
// between traced phases, so an untraced request pays one atomic load.
type tracePoint struct{ p atomic.Pointer[tracer] }

func (t *tracePoint) get() *tracer   { return t.p.Load() }
func (t *tracePoint) set(tr *tracer) { t.p.Store(tr) }

type spanCtxKey struct{}

type spanRef struct {
	req string
	id  int64
}

// layerHandler is the benchmark-owned wrapper around a layer's
// ServeHTTP: it records the handler's span, and for a worker's POST /run
// it rebuilds the queue and kernel intervals from the response's stats.
type layerHandler struct {
	next   http.Handler
	name   string
	tp     *tracePoint
	worker bool
}

func (h *layerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tp.get()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	req := r.Header.Get(hdrReq)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
	id := tr.reserve()
	r = r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanRef{req, id}))
	rec := &headCapture{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(rec, r)
	end := time.Now()
	name := h.name
	if r.Method == http.MethodPut {
		name += ".put"
	}
	tr.addReserved(id, parent, req, name, start, end)
	if h.worker && r.URL.Path == "/run" && rec.status == http.StatusOK {
		queue, _ := jsonInt(rec.head, "queue_wait_ns")
		var kernel int64
		if !jsonTrue(rec.head, "cache_hit") && !jsonTrue(rec.head, "coalesced") {
			kernel, _ = jsonInt(rec.head, "elapsed_ns")
		}
		tr.addStats(id, req, start, time.Duration(queue), time.Duration(kernel))
	}
}

// headCapture keeps the status and the first bytes of a response, where
// a run response carries its stats.
type headCapture struct {
	http.ResponseWriter
	status int
	head   []byte
}

const headBytes = 1024

func (c *headCapture) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *headCapture) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	if n := headBytes - len(c.head); n > 0 {
		c.head = append(c.head, b[:min(n, len(b))]...)
	}
	return c.ResponseWriter.Write(b)
}

// spanTransport carries the router handler's span into the requests the
// router sends its workers, so the worker's span names its parent.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanCtxKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, ref.req)
		r.Header.Set(hdrParent, strconv.FormatInt(ref.id, 10))
	}
	return t.base.RoundTrip(r)
}

// client is one closed-loop HTTP client. Its response buffer is reused:
// a body returned by do is valid until the next call.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

// call is one HTTP request's outcome.
type call struct {
	status int
	body   []byte
	lat    time.Duration
}

// do sends one request; with a tracer it records the client span under
// parent and hands the trace context to the server.
func (c *client) do(tr *tracer, parent int64, req, name, method, path string, body []byte) (call, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return call{}, err
	}
	id := tr.reserve()
	if tr != nil {
		hr.Header.Set(hdrReq, req)
		hr.Header.Set(hdrParent, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return call{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return call{}, fmt.Errorf("reading %s %s: %w", method, path, err)
	}
	tr.addReserved(id, parent, req, name, start, end)
	return call{status: resp.StatusCode, body: c.buf.Bytes(), lat: end.Sub(start)}, nil
}

// drive runs `clients` closed loops until deadline. op performs client
// c's n-th operation and records it in that client's tally.
func drive(deadline time.Time, op func(c, n int, t *tally)) *tally {
	tallies := make([]*tally, clients)
	var wg sync.WaitGroup
	for c := range tallies {
		tallies[c] = &tally{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				op(c, n, tallies[c])
			}
		}()
	}
	wg.Wait()
	out := &tally{}
	for _, t := range tallies {
		out.merge(t)
	}
	return out
}

// statusErr describes a non-success HTTP answer.
func statusErr(method, path string, c call) error {
	msg := c.body
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Errorf("%s %s: HTTP %d: %s", method, path, c.status, bytes.TrimSpace(msg))
}

// wireLayers derives the HTTP-side per-layer metrics from the spans of
// a traced phase: worker handler time and self time, upload handler
// time, transport self time and the router hop.
func wireLayers(spans []span) []metric {
	self, dur := layerTimes(spans)
	return []metric{
		{"serve.handler_ms", median(dur[spanWorker]), "ms", len(dur[spanWorker])},
		{"serve.self_ms", median(self[spanWorker]), "ms", len(self[spanWorker])},
		{"serve.put_ms", median(dur[spanWorker+".put"]), "ms", len(dur[spanWorker+".put"])},
		{"net.self_ms", median(self[spanClient]), "ms", len(self[spanClient])},
		{"cluster.hop_ms", median(self[spanRouter]), "ms", len(self[spanRouter])},
	}
}
