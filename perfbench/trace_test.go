package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},      // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},     // sticks out of the parent
		{ID: 5, Parent: 2, Name: "g", Start: 15, End: 20},      // a's child, inside a
		{ID: 6, Parent: 1, Name: "d", Start: 45, End: 50},      // inside b
		{ID: 7, Name: "other", Start: 0, End: 10},              // unrelated root
		{ID: 8, Parent: 7, Name: "late", Start: 200, End: 300}, // entirely outside its parent
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100 - (50 + 10), // [10,60] merged, plus [90,100]
		2: 30 - 5,
		3: 30,
		4: 30,
		5: 5,
		6: 5,
		7: 10,
		8: 100,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerRebuildsStatsAsChildren(t *testing.T) {
	tr := newTracer()
	start := tr.epoch.Add(time.Millisecond)
	id := tr.add(0, "r", spanWorker, start, start.Add(10*time.Millisecond))
	tr.addStats(id, "r", start, 2*time.Millisecond, 5*time.Millisecond)
	self, _ := layerTimes(tr.snapshot())
	if got := self[spanWorker]; len(got) != 1 || got[0] != 3 {
		t.Fatalf("worker self time = %v ms, want [3]", got)
	}
	// A cache hit rebuilds no kernel span.
	tr2 := newTracer()
	tr2.addStats(1, "r", start, 0, 0)
	if n := len(tr2.snapshot()); n != 0 {
		t.Fatalf("a hit rebuilt %d spans, want 0", n)
	}
	// A nil tracer records nothing and hands out no IDs.
	var none *tracer
	if id := none.add(0, "r", spanClient, start, start); id != 0 {
		t.Fatalf("nil tracer handed out span %d", id)
	}
}
