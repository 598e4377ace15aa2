package main

import (
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"pushpull"
	"pushpull/api"
)

func smallWorkload(t *testing.T) *pushpull.Workload {
	t.Helper()
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(8, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	return pushpull.Weighted(pushpull.WithUniformWeights(g, 1, 100, 4))
}

func runSmall(t *testing.T, wl *pushpull.Workload, algo string) *pushpull.Report {
	t.Helper()
	src := pickSources(wl.Graph(), 2)
	opts := []pushpull.Option{pushpull.WithThreads(1), pushpull.WithDirection(pushpull.Pull)}
	switch algo {
	case "bfs", "sssp":
		opts = append(opts, pushpull.WithSource(src[0]))
	case "bc":
		opts = append(opts, pushpull.WithSources(src))
	}
	rep, err := pushpull.Run(context.Background(), wl, algo, opts...)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return rep
}

// corrupt returns a copy of rep whose payload differs in one entry.
func corrupt(t *testing.T, rep *pushpull.Report) *pushpull.Report {
	t.Helper()
	cp := *rep
	switch v := rep.Result.(type) {
	case []float64: // pr
		r := slices.Clone(v)
		r[1] += 1e-6
		cp.Result = r
	case []int64: // tc
		c := slices.Clone(v)
		c[1]++
		cp.Result = c
	case *pushpull.SSSPResult:
		d := *v
		d.Dist = slices.Clone(v.Dist)
		d.Dist[1] += 1e-9
		cp.Result = &d
	case *pushpull.BCResult:
		b := *v
		b.BC = slices.Clone(v.BC)
		b.BC[1] += 1e-3 * (1 + b.BC[1])
		cp.Result = &b
	case *pushpull.BFSTree:
		tr := *v
		tr.Level = slices.Clone(v.Level)
		tr.Level[1]++
		cp.Result = &tr
	case *pushpull.ColoringResult:
		c := *v
		c.Colors = slices.Clone(v.Colors)
		g := smallWorkload(t).Graph()
		u := pushpull.V(0)
		for g.Degree(u) == 0 {
			u++
		}
		c.Colors[u] = c.Colors[g.Neighbors(u)[0]] // clash with a neighbour
		cp.Result = &c
	case *pushpull.MSTResult:
		m := *v
		m.TotalWeight += 1e-9
		cp.Result = &m
	default:
		t.Fatalf("no corruption for %T", v)
	}
	return &cp
}

func TestLibraryChecksRejectOneCorruptEntry(t *testing.T) {
	wl := smallWorkload(t)
	for _, a := range algos {
		rep := runSmall(t, wl, a)
		ref := newLibRef(a, wl.Graph(), rep)
		if err := ref.check(runSmall(t, wl, a)); err != nil {
			t.Errorf("%s: a rerun failed its own reference: %v", a, err)
		}
		if err := ref.check(corrupt(t, rep)); err == nil {
			t.Errorf("%s: a payload with one corrupt entry passed", a)
		}
	}
}

func wireBody(t *testing.T, rep *pushpull.Report) []byte {
	t.Helper()
	b, err := json.Marshal(api.BuildResponse("g", rep))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWireChecksRejectOneCorruptEntry(t *testing.T) {
	wl := smallWorkload(t)
	for _, a := range hotAlgos {
		rep := runSmall(t, wl, a)
		ref, err := newWireRef(a, wl.Graph(), rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.check(wireBody(t, rep)); err != nil {
			t.Errorf("%s: the reference body failed its own check: %v", a, err)
		}
		if err := ref.check(wireBody(t, corrupt(t, rep))); err == nil {
			t.Errorf("%s: a body with one corrupt entry passed", a)
		}
	}
	if _, err := newWireRef("mst", wl.Graph(), runSmall(t, wl, "mst")); err == nil {
		t.Error("mst has no wire payload, yet a wire reference was built")
	}
}

func TestWireChecksAcceptEquivalentPayloads(t *testing.T) {
	wl := smallWorkload(t)
	// pr: a rank off by far less than the tolerance is not a failure.
	rep := runSmall(t, wl, "pr")
	ref, _ := newWireRef("pr", wl.Graph(), rep)
	near := *rep
	r := slices.Clone(rep.Ranks())
	r[2] += 1e-13
	near.Result = r
	if err := ref.check(wireBody(t, &near)); err != nil {
		t.Errorf("pr within tolerance rejected: %v", err)
	}
	// gc: another proper colouring is as good as the reference's.
	rep = runSmall(t, wl, "gc")
	ref, _ = newWireRef("gc", wl.Graph(), rep)
	other := *rep
	res := *rep.Result.(*pushpull.ColoringResult)
	res.Colors = slices.Clone(res.Colors)
	for i := range res.Colors {
		res.Colors[i] += 100 // a renamed palette stays proper
	}
	other.Result = &res
	if err := ref.check(wireBody(t, &other)); err != nil {
		t.Errorf("gc with a renamed palette rejected: %v", err)
	}
}

func TestWireCheckRejectsAnErrorBody(t *testing.T) {
	wl := smallWorkload(t)
	ref, _ := newWireRef("pr", wl.Graph(), runSmall(t, wl, "pr"))
	err := ref.check([]byte(`{"error":"unknown graph"}`))
	if err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Fatalf("error body: got %v, want a missing-ranks failure", err)
	}
}
