package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval the benchmark saw at a layer boundary. Spans of
// one request share Req; Parent is the ID of the span that caused this
// one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names, one per boundary the benchmark can see.
const (
	spanClient = "client" // one client HTTP request
	spanOp     = "op"     // one closed-loop operation (a job: submit + polls)
	spanRouter = "router" // the cluster router's handler
	spanWorker = "worker" // the serve worker's handler
	spanRun    = "run"    // one pushpull.Run call
	spanKernel = "kernel" // kernel interval rebuilt from the reported stats
	spanQueue  = "queue"  // admission-queue interval rebuilt from the reported stats
)

// tracer keeps spans in memory; a nil *tracer records nothing, so the
// untraced path pays one nil check per boundary.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// since converts a wall-clock instant to the tracer's nanosecond clock.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// reserve hands out a span ID before the span ends, so its children can
// name it as their parent while it is still open.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span and returns its ID.
func (t *tracer) add(parent int64, req, name string, start, end time.Time) int64 {
	id := t.reserve()
	t.addReserved(id, parent, req, name, start, end)
	return id
}

// addReserved records a finished span under an ID from reserve.
func (t *tracer) addReserved(id, parent int64, req, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: t.since(start), End: t.since(end)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// addStats rebuilds the queue and kernel intervals a run reported as
// children of the span that contains them: the queue wait opens the
// parent interval and the kernel follows it. A cache hit or coalesced
// answer executed no kernel of its own, so it gets no kernel span.
func (t *tracer) addStats(parent int64, req string, start time.Time, queue, kernel time.Duration) {
	if t == nil {
		return
	}
	if queue > 0 {
		t.add(parent, req, spanQueue, start, start.Add(queue))
	}
	if kernel > 0 {
		k := start.Add(queue)
		t.add(parent, req, spanKernel, k, k.Add(kernel))
	}
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its direct children. Overlapping children are
// merged first, so concurrent children are not subtracted twice, and a
// child sticking out of its parent only counts inside it. Grandchildren
// lie inside their own parent and are already covered.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to p.
func covered(p span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return time.Duration(total)
}

// layerTimes groups the spans by name and returns, per name, the self
// times in milliseconds and the durations in milliseconds.
func layerTimes(spans []span) (self, dur map[string][]float64) {
	st := selfTimes(spans)
	self, dur = map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		self[s.Name] = append(self[s.Name], ms(st[s.ID]))
		dur[s.Name] = append(dur[s.Name], ms(s.dur()))
	}
	return self, dur
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reqID names the n-th operation of client c in a traced phase; an
// untraced operation carries no ID, so it pays no formatting.
func (t *tracer) reqID(c, n int) string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("c%d-%d", c, n)
}
